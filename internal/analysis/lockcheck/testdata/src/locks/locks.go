// Package locks is lockcheck testdata: one function per discipline
// rule, true positives annotated with want expectations and true
// negatives left bare.
package locks

import (
	"fmt"
	"io"
	"sync"
)

type counter struct {
	mu sync.Mutex
	n  int
}

// inc is the sanctioned shape: lock, defer unlock.
func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// leak returns while holding the lock on one path.
func (c *counter) leak(v bool) int {
	c.mu.Lock()
	if v {
		return c.n // want `returning while c\.mu is held .* no deferred unlock`
	}
	c.mu.Unlock()
	return 0
}

// fallOff never unlocks on the fall-through path.
func (c *counter) fallOff() {
	c.mu.Lock() // want `c\.mu is still held when the function returns`
	c.n++
}

// dump blocks on I/O while holding the lock.
func (c *counter) dump(w io.Writer) {
	c.mu.Lock()
	fmt.Fprintf(w, "%d\n", c.n) // want `calling fmt\.Fprintf \(may block\) while c\.mu is held`
	c.mu.Unlock()
}

// dumpLocked is the same shape made intentional with a directive.
func (c *counter) dumpLocked(w io.Writer) {
	c.mu.Lock()
	fmt.Fprintf(w, "%d\n", c.n) //bpvet:locked(c.mu) the write must be atomic with the counter read
	c.mu.Unlock()
}

// double re-locks a lock the function already holds.
func (c *counter) double() {
	c.mu.Lock()
	c.mu.Lock() // want `c\.mu is locked again while already held .* deadlock`
	c.mu.Unlock()
}

// strayUnlock releases a lock this function never took.
func (c *counter) strayUnlock() {
	c.mu.Unlock() // want `unlocking c\.mu, which this function does not hold`
}

// get is a locked accessor; sum deadlocks by calling it under the same
// lock — found through the acquired-locks summary, not syntax.
func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) sum() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get() // want `calling \(counter\)\.get, which acquires c\.mu — already held`
}

type pair struct {
	a, b sync.Mutex
}

// both nests lock acquisitions without documenting the order.
func (p *pair) both() {
	p.a.Lock()
	p.b.Lock() // want `acquiring p\.b while holding p\.a .* risks deadlock`
	p.b.Unlock()
	p.a.Unlock()
}

// bothOrdered documents the nesting order with a directive.
func (p *pair) bothOrdered() {
	p.a.Lock()
	p.b.Lock() //bpvet:locked(p.a) a-then-b is the documented order everywhere in this package
	p.b.Unlock()
	p.a.Unlock()
}

// snapshot copies a value embedding a mutex.
func snapshot(c *counter) {
	v := *c // want `assignment copies \*c, which contains a sync\.Mutex by value`
	_ = v
}

// spawn accounts for the goroutine from inside it, racing Wait.
func spawn(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		go func() {
			wg.Add(1) // want `wg\.Add inside the spawned goroutine races the corresponding Wait`
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// spawnRight adds before spawning and waits without a lock held.
func spawnRight(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// manualBranches locks and unlocks correctly across branches; the
// maybe-held tracking must not report the conditional unlock.
func (c *counter) manualBranches(active bool) {
	if active {
		c.mu.Lock()
	}
	c.n++
	if active {
		c.mu.Unlock()
	}
}

// waitUnder blocks on a WaitGroup while holding a lock.
func (c *counter) waitUnder(wg *sync.WaitGroup) {
	c.mu.Lock()
	wg.Wait() // want `calling sync\.Wait \(may block\) while c\.mu is held`
	c.mu.Unlock()
}

// deferredClosure releases through a deferred closure that also
// updates guarded state: no leak on any return path.
func (c *counter) deferredClosure() int {
	c.mu.Lock()
	defer func() {
		c.n++
		c.mu.Unlock()
	}()
	return c.n
}
