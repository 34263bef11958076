package runcache

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fill writes n entries of roughly equal size under schema, each through
// its own store whose writer then exits, so dir gains n collectable
// segments of one entry each.
func fill(t *testing.T, dir, schema string, n int) []string {
	t.Helper()
	var segs []string
	for i := 0; i < n; i++ {
		st, err := Open(dir, schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(st.Key([]byte{byte(i)}), []byte(`{"v":"0123456789abcdef"}`)); err != nil {
			t.Fatal(err)
		}
		st.exit()
		segs = append(segs, st.seg.Name())
	}
	return segs
}

// TestGCSweepsSupersededSchemas: directories of schemas not in the keep
// set are removed wholesale; every kept schema's entries survive.
func TestGCSweepsSupersededSchemas(t *testing.T) {
	dir := t.TempDir()
	fill(t, dir, "live-schema-a", 3)
	fill(t, dir, "live-schema-b", 2) // e.g. the trace cache sharing the dir
	fill(t, dir, "superseded-schema", 4)

	rep, err := GC(dir, []string{"live-schema-a", "live-schema-b"}, GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaDirsRemoved != 1 || rep.BytesFreed == 0 {
		t.Fatalf("report = %+v, want 1 schema dir removed with bytes freed", rep)
	}
	if rep.EntriesKept != 5 {
		t.Fatalf("kept %d segments, want 5", rep.EntriesKept)
	}
	for schema, want := range map[string]int{"live-schema-a": 3, "live-schema-b": 2} {
		st, err := Open(dir, schema)
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != want {
			t.Fatalf("schema %q has %d entries after GC, want %d", schema, st.Len(), want)
		}
	}
	if st, _ := Open(dir, "superseded-schema"); st.Len() != 0 {
		t.Fatal("superseded schema entries survived the sweep")
	}
}

// TestGCAgeBound: segments older than MaxAge are removed; younger ones
// survive. Quarantined segments age out too.
func TestGCAgeBound(t *testing.T) {
	dir := t.TempDir()
	segs := fill(t, dir, "s", 4)
	old := time.Now().Add(-48 * time.Hour)
	// Age two segments and plant an aged quarantined one.
	for _, seg := range segs[:2] {
		if err := os.Chtimes(seg, old, old); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := filepath.Join(filepath.Dir(segs[0]), "junk"+segSuffix+".corrupt")
	if err := os.WriteFile(corrupt, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(corrupt, old, old); err != nil {
		t.Fatal(err)
	}

	rep, err := GC(dir, []string{"s"}, GCOptions{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesRemoved != 3 { // 2 aged segments + 1 aged quarantine
		t.Fatalf("removed %d files, want 3 (report %+v)", rep.EntriesRemoved, rep)
	}
	if st, _ := Open(dir, "s"); st.Len() != 2 {
		t.Fatalf("%d entries survived, want 2", st.Len())
	}
}

// TestGCSizeBound: with the directory over MaxBytes, the oldest
// segments are evicted first until it fits.
func TestGCSizeBound(t *testing.T) {
	dir := t.TempDir()
	segs := fill(t, dir, "s", 4)
	// Stamp distinct mtimes so eviction order is deterministic: segment
	// i is older than segment i+1.
	for i, seg := range segs {
		mt := time.Now().Add(-time.Duration(len(segs)-i) * time.Hour)
		if err := os.Chtimes(seg, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(segs[3])
	if err != nil {
		t.Fatal(err)
	}
	one := info.Size()

	// Budget for two segments: the two oldest must go.
	rep, err := GC(dir, []string{"s"}, GCOptions{MaxBytes: 2 * one})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesRemoved != 2 || rep.EntriesKept != 2 {
		t.Fatalf("report = %+v, want 2 removed / 2 kept", rep)
	}
	if rep.BytesKept > 2*one {
		t.Fatalf("kept %d bytes, over the %d budget", rep.BytesKept, 2*one)
	}
	for i, seg := range segs {
		if _, err := os.Stat(seg); (err == nil) != (i >= 2) {
			t.Fatalf("segment %d (oldest first): stat error %v", i, err)
		}
	}
}

// TestGCLeavesEmptySegments: an empty segment is a writer's first
// instant, before it holds its lock and writes the header; GC must not
// collect it from under the writer, whatever its age.
func TestGCLeavesEmptySegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(st.Dir(), "new"+segSuffix)
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(dir, []string{"s"}, GCOptions{MaxAge: 1, MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(empty); err != nil {
		t.Fatalf("GC collected an empty segment: %v", err)
	}
}

// TestGCMissingDirIsNoop: collecting a directory that does not exist is
// not an error.
func TestGCMissingDirIsNoop(t *testing.T) {
	rep, err := GC(filepath.Join(t.TempDir(), "never-created"), []string{"s"}, GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep != (GCReport{}) {
		t.Fatalf("noop GC reported %+v", rep)
	}
}

// TestGCKeepsForeignRootFiles: files at the cache root that are not
// schema directories are not ours to collect.
func TestGCKeepsForeignRootFiles(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("hands off"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(dir, []string{"s"}, GCOptions{MaxAge: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign root file was collected: %v", err)
	}
}
