package runcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fill writes n entries of roughly equal size under schema, each through
// its own store whose writer then exits, so dir gains n collectable
// segments of one entry each.
func fill(t *testing.T, dir, schema string, n int) []string {
	t.Helper()
	var segs []string
	keyer := NewKeyer(schema)
	for i := 0; i < n; i++ {
		st, err := Open(dir, schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(keyer.Key([]byte{byte(i)}), []byte(`{"v":"0123456789abcdef"}`)); err != nil {
			t.Fatal(err)
		}
		st.exit()
		segs = append(segs, st.seg.Name())
	}
	return segs
}

// TestGCSweepsSupersededSchemas: the directory of every schema but the
// live one is removed wholesale; the live schema's entries survive.
func TestGCSweepsSupersededSchemas(t *testing.T) {
	dir := t.TempDir()
	fill(t, dir, "live-schema", 3)
	fill(t, dir, "superseded-schema", 4)
	fill(t, dir, "other-tool-schema", 2) // e.g. a former trace recording cache

	rep, err := GC(dir, "live-schema", GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaDirsRemoved != 2 || rep.BytesFreed == 0 {
		t.Fatalf("report = %+v, want 2 schema dirs removed with bytes freed", rep)
	}
	if rep.EntriesKept != 3 {
		t.Fatalf("kept %d segments, want 3", rep.EntriesKept)
	}
	for schema, want := range map[string]int{"live-schema": 3, "superseded-schema": 0, "other-tool-schema": 0} {
		st, err := Open(dir, schema)
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != want {
			t.Fatalf("schema %q has %d entries after GC, want %d", schema, st.Len(), want)
		}
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

	rep, err := GC(dir, "s", GCOptions{MaxAge: 24 * time.Hour})
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
	rep, err := GC(dir, "s", GCOptions{MaxBytes: 2 * one})
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
	if _, err := GC(dir, "s", GCOptions{MaxAge: 1, MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(empty); err != nil {
		t.Fatalf("GC collected an empty segment: %v", err)
	}
}

// TestGCMissingDirIsNoop: collecting a directory that does not exist is
// not an error.
func TestGCMissingDirIsNoop(t *testing.T) {
	rep, err := GC(filepath.Join(t.TempDir(), "never-created"), "s", GCOptions{})
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
	if _, err := GC(dir, "s", GCOptions{MaxAge: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign root file was collected: %v", err)
	}
}

// TestStartGC: the periodic sweep removes superseded schema directories
// and stops when told to.
func TestStartGC(t *testing.T) {
	dir := t.TempDir()
	stale, err := Open(dir, "xorbp-run/epoch0/fossil")
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.Put(strings.Repeat("ab", 32), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	live, err := Open(dir, "xorbp-run/epoch9/live")
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Put(strings.Repeat("cd", 32), []byte(`{"y":2}`)); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	stop := StartGC(dir, "xorbp-run/epoch9/live", 10*time.Millisecond,
		GCOptions{}, &log)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(stale.Dir()); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale schema dir still present after 5s; log:\n%s", log.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(live.Dir()); err != nil {
		t.Fatalf("live schema dir was swept: %v", err)
	}
	stop()
	stop() // idempotent
}
