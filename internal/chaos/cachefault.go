package chaos

import "fmt"

// CacheFaults implements runcache.FileFault: it perturbs cache record
// bytes on their way to disk (the in-memory copy is untouched), driven
// by the plan's bitflip/truncate/enospc rules. Attach with
// runcache.Store.SetFileFault.
type CacheFaults struct {
	inj *Injector
}

// NewCacheFaults drives a result cache's write path from inj.
func NewCacheFaults(inj *Injector) *CacheFaults { return &CacheFaults{inj: inj} }

// WriteEntry applies at most one fault to the bytes about to be
// written for key: an outright write error (ENOSPC), truncation to
// half length, or a single deterministic bit flip. The returned slice
// is a copy; the caller's buffer is never aliased.
func (c *CacheFaults) WriteEntry(key string, raw []byte) ([]byte, error) {
	switch {
	case c.inj.Hit(ENOSPC{}):
		return nil, fmt.Errorf("chaos: injected write failure (no space left on device)")
	case c.inj.Hit(Truncate{}):
		return append([]byte(nil), raw[:len(raw)/2]...), nil
	case c.inj.Hit(BitFlip{}) && len(raw) > 0:
		out := append([]byte(nil), raw...)
		bit := c.inj.Draw(BitFlip{}) % uint64(len(out)*8)
		out[bit/8] ^= 1 << (bit % 8)
		return out, nil
	}
	return raw, nil
}
