package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
)

// directKey hashes schema‖0‖payload from scratch: the definition every
// Keyer key must match byte for byte.
func directKey(schema string, payload []byte) string {
	sum := sha256.Sum256(append(append([]byte(schema), 0), payload...))
	return hex.EncodeToString(sum[:])
}

// filler returns n bytes that differ from position to position and from
// seed to seed, so a dropped or misplaced byte changes the hash.
func filler(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestKeyerMatchesDirectHash: a key derived from the saved schema prefix
// equals a direct SHA-256 over schema‖0‖payload. The schema lengths put
// the NUL at the end of a block's 55-byte message room, on either side
// of a block boundary, at a block's first byte, and at the live wire
// schema's length; the payloads cover zero to three blocks past the
// prefix.
func TestKeyerMatchesDirectHash(t *testing.T) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 1072} {
		schema := string(filler(n, 'a'))
		k := NewKeyer(schema)
		for m := 0; m <= 200; m++ {
			payload := filler(m, byte(n))
			if got, want := k.Key(payload), directKey(schema, payload); got != want {
				t.Fatalf("schema of %d bytes, payload of %d: Key = %s, want %s", n, m, got, want)
			}
		}
	}
}

// TestKeyerConcurrent: one Keyer shared by 8 goroutines derives the same
// keys as a direct hash; under -race it also shows Key shares no mutable
// state between calls.
func TestKeyerConcurrent(t *testing.T) {
	schema := strings.Repeat("schema/", 150)
	k := NewKeyer(schema)
	payloads := make([][]byte, 64)
	want := make([]string, len(payloads))
	for i := range payloads {
		payloads[i] = filler(3*i+1, byte(i))
		want[i] = directKey(schema, payloads[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for i, p := range payloads {
					if got := k.Key(p); got != want[i] {
						t.Errorf("goroutine %d, payload %d: Key = %s, want %s", g, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
