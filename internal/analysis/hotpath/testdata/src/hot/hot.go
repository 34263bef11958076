// Package hot is hotpath-analyzer testdata: one marked function per
// banned construct (true positives) interleaved with the sanctioned
// forms (true negatives).
package hot

import (
	"math/bits"
	"sort"
)

type ring struct {
	buf [8]uint64
	n   int
}

type counter interface{ Bump(int) }

type impl struct{ total int }

func (i *impl) Bump(d int) { i.total += d }

//bpvet:hotpath
func hotMake(n int) int {
	s := make([]int, n) // want `make allocates`
	return len(s)
}

//bpvet:hotpath
func hotSliceLit() int {
	s := []int{1, 2, 3} // want `slice literal allocates`
	return len(s)
}

//bpvet:hotpath
func hotPtrLit() *ring {
	return &ring{} // want `&composite literal heap-allocates`
}

//bpvet:hotpath
func hotValueLit() ring {
	return ring{n: 1} // plain value literal: fine
}

//bpvet:hotpath
func hotArray() [4]uint64 {
	return [4]uint64{1, 2, 3, 4} // array value literal: fine
}

//bpvet:hotpath
func hotMapAccess(m map[int]int, k int) int {
	return m[k] // want `map access`
}

//bpvet:hotpath
func hotClear(m map[int]int, s []uint64) {
	clear(s)
	clear(m) // want `clear in hotpath hotClear: map mutation`
}

//bpvet:hotpath
func hotMapRange(m map[int]int) int {
	total := 0
	for _, v := range m { // want `map range`
		total += v
	}
	return total
}

//bpvet:hotpath
func hotChanSend(ch chan int) {
	ch <- 1 // want `channel send`
}

//bpvet:hotpath
func hotChanRecv(ch chan int) int {
	return <-ch // want `channel receive`
}

//bpvet:hotpath
func hotDefer(f func()) {
	defer f() // want `defer`
}

//bpvet:hotpath
func hotGo(f func()) {
	go f() // want `go statement`
}

//bpvet:hotpath
func hotConcat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//bpvet:hotpath
func hotStringConv(b []byte) string {
	return string(b) // want `conversion to string copies`
}

//bpvet:hotpath
func hotBoxArg(i *impl) {
	sink(i) // want `boxes it`
}

func sink(v any) { _ = v }

//bpvet:hotpath
func hotBoxAssign(i *impl) {
	var c counter = i // want `boxes it`
	c.Bump(1)
}

//bpvet:hotpath
func hotBoxReturn(i *impl) counter {
	return i // want `boxes it`
}

//bpvet:hotpath
func hotDispatch(c counter, v int) {
	c.Bump(v) // interface dispatch: fine, nothing boxes
}

//bpvet:hotpath
func hotMethodValue(i *impl) func(int) {
	return i.Bump // want `method value captures its receiver`
}

//bpvet:hotpath
func hotClosureArg(r *ring, v uint64) {
	update(r, func(x uint64) uint64 { return x + v }) // direct-arg closure: fine
}

//bpvet:hotpath
func hotClosureEscapes(v uint64) func() uint64 {
	f := func() uint64 { return v } // want `function literal escapes`
	return f
}

//bpvet:hotpath
func hotClosureBodyChecked(n int) {
	run(func() {
		_ = make([]int, n) // want `make allocates`
	})
}

func run(f func())                          { f() }
func update(r *ring, f func(uint64) uint64) { r.buf[0] = f(r.buf[0]) }

//bpvet:hotpath
func hotRoot(n int) int {
	return helper(n) // unannotated same-package callee: checked below
}

func helper(n int) int {
	s := make([]int, n) // want `make allocates.*reached from hotpath hotRoot`
	return len(s)
}

//bpvet:coldinit sized once per thread before the measured window opens
func lazyInit(n int) []int {
	return make([]int, n) // exempt: coldinit body is not checked
}

//bpvet:hotpath
func hotUsesCold(n int) int {
	return len(lazyInit(n)) // call to coldinit: fine
}

//bpvet:hotpath
func hotAppendAllowed(buf []uint64, v uint64) []uint64 {
	buf = append(buf, v) //bpvet:allow capacity preallocated by the generator; steady state never grows
	return buf
}

//bpvet:hotpath
func hotBits(x uint64) int {
	return bits.OnesCount64(x) // math/bits is on the audited allowlist
}

//bpvet:hotpath
func hotStdlib(s []int) {
	sort.Ints(s) // want `stdlib outside math/math/bits`
}

func coldHelper() []int {
	return make([]int, 8) // unmarked and unreachable from hot code: fine
}
