package runcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// exit releases s's segment lock, as its process exiting would.
func (s *Store) exit() {
	if s.seg != nil {
		_ = s.seg.Close()
	}
}

// segments lists the live segments (suffix "") or quarantined ones
// (suffix ".corrupt") of a store's directory.
func segments(t *testing.T, s *Store, suffix string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(s.Dir(), "*"+segSuffix+suffix))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// mustOpen opens dir under schema and checks the loaded and quarantined
// counts.
func mustOpen(t *testing.T, dir, schema string, loaded, quarantined int) *Store {
	t.Helper()
	s, err := Open(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loaded != loaded || st.Quarantined != quarantined {
		t.Fatalf("Open stats = %+v, want %d loaded and %d quarantined", st, loaded, quarantined)
	}
	return s
}

// rewrite replaces old with new in the one segment of s's directory.
func rewrite(t *testing.T, s *Store, old, new string) {
	t.Helper()
	segs := segments(t, s, "")
	if len(segs) != 1 {
		t.Fatalf("found %d segments, want 1", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(old)) {
		t.Fatalf("segment %q does not contain %q", raw, old)
	}
	if err := os.WriteFile(segs[0], bytes.Replace(raw, []byte(old), []byte(new), 1), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	key := s.Key([]byte("payload-1"))
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(key, []byte(`{"cycles":42}`)); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(key); !ok || string(v) != `{"cycles":42}` {
		t.Fatalf("in-process Get = %q, %v", v, ok)
	}

	// A fresh Open on the same directory sees the entry.
	s2, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(key); !ok || string(v) != `{"cycles":42}` {
		t.Fatalf("reopened Get = %q, %v", v, ok)
	}
	if st := s2.Stats(); st.Loaded != 1 || st.Hits != 1 {
		t.Fatalf("reopened stats = %+v, want 1 loaded, 1 hit", st)
	}
}

// TestPutCompactsAndRejects: a value reaches disk compacted (so it can
// never hold a raw newline), and a value that is not JSON or a key that
// cannot be framed is refused before anything is stored.
func TestPutCompactsAndRejects(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	key := s.Key([]byte("k"))
	if err := s.Put(key, []byte("{\n  \"a\": [1, 2],\n  \"b\": \"x y\"\n}")); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ key, value string }{
		{key, "not json"}, {key, ""}, {"", "1"}, {"a b", "1"}, {"a\nb", "1"},
	} {
		if err := s.Put(bad.key, []byte(bad.value)); err == nil {
			t.Errorf("Put(%q, %q) succeeded", bad.key, bad.value)
		}
	}
	if st := s.Stats(); st.Puts != 1 || s.Len() != 1 {
		t.Fatalf("stats %+v, len %d: a refused Put was stored", st, s.Len())
	}
	s2 := mustOpen(t, dir, "schema-a", 1, 0)
	if v, _ := s2.Get(key); string(v) != `{"a":[1,2],"b":"x y"}` {
		t.Fatalf("reopened value = %q, want it compacted", v)
	}
}

func TestSchemaMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(a.Key([]byte("k")), []byte(`1`)); err != nil {
		t.Fatal(err)
	}

	// A different schema starts empty: old entries are invalid for it and
	// its keys cannot alias them (the key hash includes the schema).
	b, err := Open(dir, "schema-b")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("schema-b store loaded %d entries from schema-a", b.Len())
	}
	if _, ok := b.Get(b.Key([]byte("k"))); ok {
		t.Fatal("schema-b key aliased a schema-a entry")
	}
	if a.Key([]byte("k")) == b.Key([]byte("k")) {
		t.Fatal("identical payloads under different schemas share a key")
	}

	// The old schema's entries are untouched, not deleted.
	a2, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Len() != 1 {
		t.Fatalf("schema-a store lost its entry: %d left", a2.Len())
	}
}

// TestCorruptEntryQuarantined: segments left by exited writers in
// three corrupt shapes — bytes that are no segment at all, a
// well-formed segment whose header names another schema (a segment
// copied in from elsewhere), and a record whose key was altered under
// its checksum — load nothing, are renamed aside, and stay quarantined.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	good := s.Key([]byte("good"))
	if err := s.Put(good, []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	s.exit()
	writeSeg := func(name string, content []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(s.Dir(), name+segSuffix), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec := func(key, value string) []byte {
		r, err := appendRecord(nil, key, []byte(value))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	writeSeg("garbage", []byte("not a segment at all\n"))
	writeSeg("foreign", append(segmentHeader("schema-z"), rec("deadbeef", "1")...))
	altered := bytes.Replace(rec("cafecafe", "1"), []byte("cafecafe"), []byte("cafecafd"), 1)
	writeSeg("altered", append(segmentHeader("schema-a"), altered...))

	s2 := mustOpen(t, dir, "schema-a", 1, 3)
	if n := len(segments(t, s2, ".corrupt")); n != 3 {
		t.Fatalf("found %d .corrupt segments, want 3", n)
	}
	// Quarantine is sticky: the next Open neither re-examines them nor
	// loses the good entry.
	mustOpen(t, dir, "schema-a", 1, 0)
	// The store stays usable after quarantining.
	if err := s2.Put(s2.Key([]byte("more")), []byte(`2`)); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStores exercises two Store handles sharing one directory
// — the shape of two concurrent bpsim processes — under the race
// detector: overlapping Puts of identical content and concurrent Gets.
func TestConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := s.Key([]byte(fmt.Sprintf("k%d", i)))
				if err := s.Put(key, []byte(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
					t.Error(err)
					return
				}
				if v, ok := s.Get(key); !ok || !strings.Contains(string(v), fmt.Sprint(i)) {
					t.Errorf("Get after Put: %q, %v", v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	c, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 50 || c.Stats().Quarantined != 0 {
		t.Fatalf("after concurrent writers: %d entries (%+v), want 50 clean",
			c.Len(), c.Stats())
	}
	if n := len(segments(t, c, "")); n != 2 {
		t.Fatalf("two writers left %d segments, want one each", n)
	}
}

// TestCRCMismatchQuarantined: a record whose value was altered on disk
// but is still valid JSON under the right key — the silent-corruption
// case only the checksum can catch — is not replayed at the next Open.
func TestCRCMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	key := s.Key([]byte("payload"))
	if err := s.Put(key, []byte(`{"cycles":42}`)); err != nil {
		t.Fatal(err)
	}
	rewrite(t, s, `{"cycles":42}`, `{"cycles":43}`)

	s2 := mustOpen(t, dir, "schema-a", 0, 1)
	if _, ok := s2.Get(key); ok {
		t.Fatal("a CRC-mismatched entry replayed")
	}
}

// TestBinaryEntriesChecksummed: PutBinary blobs ride the same record
// format, so they round-trip across Opens and corrupting one on disk
// keeps it from replaying like any result entry.
func TestBinaryEntriesChecksummed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte{0x00, 0x01, 0xFE, 0xFF, 0x42}
	key := s.Key([]byte("snap"))
	if err := s.PutBinary(key, blob); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, "schema-a", 1, 0)
	got, ok := s2.GetBinary(key)
	if !ok || string(got) != string(blob) {
		t.Fatalf("GetBinary = %v, %v", got, ok)
	}

	// Swap the base64 payload for a different valid one under the stale
	// CRC; the checksum, not the decoder, must reject it.
	rewrite(t, s, `"AAH+/0I="`, `"AAH+/0M="`)
	s3 := mustOpen(t, dir, "schema-a", 0, 1)
	if _, ok := s3.GetBinary(key); ok {
		t.Fatal("a tampered binary entry replayed")
	}
}

// faultStub is a test FileFault: it errors when failing is set,
// otherwise applies damage (default: flip the last byte) to the writes
// whose 1-based number is in only (every write when only is empty).
type faultStub struct {
	failing bool
	only    map[int]bool
	damage  func([]byte) []byte
	writes  int
}

func (f *faultStub) WriteEntry(key string, raw []byte) ([]byte, error) {
	f.writes++
	if f.failing {
		return nil, fmt.Errorf("stub: no space left on device")
	}
	if len(f.only) > 0 && !f.only[f.writes] {
		return raw, nil
	}
	out := append([]byte(nil), raw...)
	if f.damage != nil {
		return f.damage(out), nil
	}
	out[len(out)-1] ^= 0xFF
	return out, nil
}

// TestFileFaultWriteError: a failed record write is counted, reported,
// and does not evict the in-memory copy — but the entry is gone after a
// reopen (it never reached disk).
func TestFileFaultWriteError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	s.SetFileFault(&faultStub{failing: true})
	key := s.Key([]byte("k"))
	if err := s.Put(key, []byte(`1`)); err == nil {
		t.Fatal("Put under an erroring fault succeeded")
	}
	if v, ok := s.Get(key); !ok || string(v) != `1` {
		t.Fatalf("in-memory copy after failed write = %q, %v", v, ok)
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Fatalf("stats = %+v, want 1 put error", st)
	}
	mustOpen(t, dir, "schema-a", 0, 0)
}

// TestFileFaultCorruptionCaught: bytes perturbed by the fault hook land
// on disk (the write itself succeeds) and the next Open counts the
// record as damaged — the end-to-end contract chaosbench's cache
// scenario rides, with its writer still live in the same process.
func TestFileFaultCorruptionCaught(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	fs := &faultStub{}
	s.SetFileFault(fs)
	key := s.Key([]byte("k"))
	if err := s.Put(key, []byte(`{"cycles":7}`)); err != nil {
		t.Fatal(err)
	}
	if fs.writes != 1 {
		t.Fatalf("fault hook saw %d writes, want 1", fs.writes)
	}
	if v, ok := s.Get(key); !ok || string(v) != `{"cycles":7}` {
		t.Fatalf("in-memory copy = %q, %v", v, ok)
	}
	mustOpen(t, dir, "schema-a", 0, 1)
}

// putN writes n entries {"v":i} through a store with fault (nil for
// none) and returns the store and the keys in write order.
func putN(t *testing.T, dir string, n int, fault FileFault) (*Store, []string) {
	t.Helper()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if fault != nil {
		s.SetFileFault(fault)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = s.Key([]byte{byte(i)})
		if err := s.Put(keys[i], []byte(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	return s, keys
}

// TestTornTailLoadsCompleteRecords: a segment cut at any byte of its
// last record — a writer killed mid-append — still loads every complete
// record, and loses the last one only if its bytes are incomplete.
func TestTornTailLoadsCompleteRecords(t *testing.T) {
	src, keys := putN(t, t.TempDir(), 4, nil)
	segs := segments(t, src, "")
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndex(full[:len(full)-1], []byte("\n\n")) + 1 // the last record's leading newline
	for cut := last; cut <= len(full); cut++ {
		dir := t.TempDir()
		s, err := Open(dir, "schema-a") // creates the schema directory
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(s.Dir(), "torn"+segSuffix), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lastWhole := cut >= len(full)-1 // only the trailing newline missing
		torn := cut > last+1 && !lastWhole
		want, damaged := 3, 0
		if lastWhole {
			want = 4
		}
		if torn {
			damaged = 1
		}
		r := mustOpen(t, dir, "schema-a", want, damaged)
		for i, k := range keys[:want] {
			if v, ok := r.Get(k); !ok || string(v) != fmt.Sprintf(`{"v":%d}`, i) {
				t.Fatalf("cut at %d: entry %d = %q, %v", cut, i, v, ok)
			}
		}
		mustOpen(t, dir, "schema-a", want, 0)
	}
}

// TestDamagedMiddleRecordLosesOnlyItself: whatever the damage to one
// record in the middle of a segment — a flipped value bit, a chaos-style
// truncation directly followed by the next record, a bit flip that
// becomes a newline, a flipped leading or trailing newline — only that
// record is lost, and it counts once.
func TestDamagedMiddleRecordLosesOnlyItself(t *testing.T) {
	flipAt := func(pos func([]byte) int, mask byte) func([]byte) []byte {
		return func(b []byte) []byte { b[pos(b)] ^= mask; return b }
	}
	damages := map[string]func([]byte) []byte{
		"value bit":       flipAt(func(b []byte) int { return len(b) - 3 }, 0x01),
		"truncated":       func(b []byte) []byte { return b[:len(b)/2] },
		"bit to newline":  flipAt(func(b []byte) int { return bytes.IndexByte(b, 'J') }, 0x4A^'\n'),
		"leading newline": flipAt(func([]byte) int { return 0 }, 0x20),
		"final newline":   flipAt(func(b []byte) int { return len(b) - 1 }, 0x01),
		"crc case":        flipAt(func(b []byte) int { return bytes.IndexAny(b[:9], "abcdef") }, 0x20),
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, "schema-a")
			if err != nil {
				t.Fatal(err)
			}
			s.SetFileFault(&faultStub{only: map[int]bool{3: true}, damage: damage})
			var keys []string
			for i := 0; i < 5; i++ {
				// Keys chosen so record 3's value holds a 'J' and its CRC a
				// hex letter, for the damages that need one.
				key := fmt.Sprintf("key%d", i)
				if err := s.Put(key, []byte(`{"v":"J`+fmt.Sprint(i)+`"}`)); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, key)
			}
			r := mustOpen(t, dir, "schema-a", 4, 1)
			for i, k := range keys {
				if _, ok := r.Get(k); ok == (i == 2) {
					t.Fatalf("record %d: loaded=%v", i, ok)
				}
			}
		})
	}
}

// TestQuarantineStickyAfterWriterExits: once a damaged segment's writer
// has exited, Open renames the segment aside and re-appends its good
// records to its own segment, so a second reopen counts no damage and
// still loads them all.
func TestQuarantineStickyAfterWriterExits(t *testing.T) {
	dir := t.TempDir()
	s, _ := putN(t, dir, 3, &faultStub{only: map[int]bool{2: true}})
	s.exit()

	s2 := mustOpen(t, dir, "schema-a", 2, 1)
	if n := len(segments(t, s2, ".corrupt")); n != 1 {
		t.Fatalf("found %d .corrupt segments, want 1", n)
	}
	mustOpen(t, dir, "schema-a", 2, 0)
	s2.exit()
	mustOpen(t, dir, "schema-a", 2, 0)
}

// TestLiveSegmentNeverRenamedOrCollected: while its writer lives, a
// damaged segment is counted at every Open but never renamed, and GC
// never removes it, however old; once the writer exits, both may act.
func TestLiveSegmentNeverRenamedOrCollected(t *testing.T) {
	dir := t.TempDir()
	s, _ := putN(t, dir, 3, &faultStub{only: map[int]bool{2: true}})
	seg := segments(t, s, "")[0]

	mustOpen(t, dir, "schema-a", 2, 1)
	mustOpen(t, dir, "schema-a", 2, 1)
	if len(segments(t, s, ".corrupt")) != 0 {
		t.Fatal("a live writer's segment was quarantined")
	}
	rep, err := GC(dir, []string{"schema-a"}, GCOptions{MaxAge: 1, MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg); err != nil || rep.EntriesRemoved != 0 {
		t.Fatalf("GC removed a live writer's segment (%+v): %v", rep, err)
	}

	s.exit()
	if rep, err = GC(dir, []string{"schema-a"}, GCOptions{MaxAge: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) || rep.EntriesRemoved != 1 {
		t.Fatalf("GC kept an exited writer's aged segment (%+v): %v", rep, err)
	}
}

func TestKeyDeterministic(t *testing.T) {
	if Key("s", []byte("p")) != Key("s", []byte("p")) {
		t.Fatal("Key is not deterministic")
	}
	if Key("s", []byte("p")) == Key("s", []byte("q")) ||
		Key("s", []byte("p")) == Key("t", []byte("p")) {
		t.Fatal("distinct inputs collide")
	}
}
