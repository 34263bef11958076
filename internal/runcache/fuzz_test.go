package runcache

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenEntry feeds arbitrary bytes to Open as a segment left by an
// exited writer (withHeader prepends the schema's header, so the
// fuzzer reaches the record reader): a cache directory is shared,
// crash-prone state, so Open must never panic, must load only values
// that stand in the input as a whole, well-framed record with a valid
// checksum, and after quarantining a damaged segment must reopen to the
// same entries without counting the damage again.
func FuzzOpenEntry(f *testing.F) {
	const schema = "fuzz-schema-v1"
	rec := func(key, value string) []byte {
		r, err := appendRecord(nil, key, []byte(value))
		if err != nil {
			f.Fatal(err)
		}
		return r
	}
	good := append(rec("00deadbeef", `{"x":1}`), rec("01cafe", `"AAH+/0I="`)...)
	f.Add(good, true)
	f.Add(good[:len(good)-7], true)
	flipped := bytes.Clone(good)
	flipped[20] ^= 0x04
	f.Add(flipped, true)
	first := len(rec("00deadbeef", `{"x":1}`))
	f.Add(append(bytes.Clone(good[:first/2]), good[first:]...), true)
	f.Add([]byte(``), false)
	f.Add(good, false)
	f.Fuzz(func(t *testing.T, body []byte, withHeader bool) {
		dir := t.TempDir()
		sub := filepath.Join(dir, schemaID(schema))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		seg := body
		if withHeader {
			seg = append(segmentHeader(schema), body...)
		}
		if err := os.WriteFile(filepath.Join(sub, "fuzz"+segSuffix), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, schema)
		if err != nil {
			t.Fatalf("Open must tolerate arbitrary segment bytes, got: %v", err)
		}

		// The oracle: every loaded entry is a complete line of the
		// segment's body, framed as a record whose checksum matches.
		lines := map[string]bool{}
		if bytes.HasPrefix(seg, segmentHeader(schema)) {
			for _, l := range bytes.Split(seg[len(segmentHeader(schema)):], []byte("\n")) {
				lines[string(l)] = true
			}
		}
		loaded := map[string]string{}
		for k, v := range s.entries {
			line := fmt.Sprintf("%08x %s %s", crc32.ChecksumIEEE([]byte(k+" "+string(v))), k, v)
			if !lines[line] {
				t.Fatalf("loaded %q = %q, which no valid record of the input holds", k, v)
			}
			loaded[k] = string(v)
		}

		s2, err := Open(dir, schema)
		if err != nil {
			t.Fatal(err)
		}
		if st := s2.Stats(); st.Quarantined != 0 || st.Loaded != len(loaded) {
			t.Fatalf("re-Open after quarantine: %+v, want %d loaded and no damage", st, len(loaded))
		}
		for k, v := range loaded {
			if got, ok := s2.Get(k); !ok || string(got) != v {
				t.Fatalf("re-Open lost %q: got %q, %v", k, got, ok)
			}
		}
	})
}
