package fleet

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"xorbp/internal/wire"
)

// fakeClock is the injected queue clock: lease expiry is driven by
// explicit Advance calls, never the wall.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2021, 12, 5, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// noWait is an already-done context: Claim makes one non-blocking
// attempt.
var noWait = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// heldCtx announces when a Claim starts waiting on it. Claim consults
// Done only after it found the queue empty and took the wake channel,
// so any work arriving after held closes reaches that wait.
type heldCtx struct {
	context.Context
	held chan struct{}
	once sync.Once
}

func (c *heldCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.held) })
	return c.Context.Done()
}

// heldClaim starts a Claim on an empty queue and returns once it waits;
// the channel yields what it claimed. The claim gives up after hold, so
// a lost wake-up fails the test instead of hanging it.
func heldClaim(t *testing.T, q *Queue, worker string, hold time.Duration) <-chan []wire.Spec {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), hold)
	hc := &heldCtx{Context: ctx, held: make(chan struct{})}
	out := make(chan []wire.Spec, 1)
	go func() {
		defer cancel()
		_, specs := q.Claim(hc, worker, 10)
		out <- specs
	}()
	select {
	case <-hc.held:
	case specs := <-out:
		t.Fatalf("claim by %s did not wait: got %d specs at once", worker, len(specs))
	}
	return out
}

// qspec builds distinct minimal specs; the queue keys on Spec.Key()
// and never interprets the contents.
func qspec(i int) wire.Spec {
	return wire.Spec{Pred: "queue-test", Timer: uint64(1000 + i)}
}

// submitAsync submits a spec on a goroutine and returns channels with
// its outcome.
func submitAsync(q *Queue, spec wire.Spec) (<-chan wire.Result, <-chan error) {
	resc := make(chan wire.Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, _, err := q.Submit(context.Background(), spec)
		resc <- res
		errc <- err
	}()
	return resc, errc
}

// waitPending spins until the queue holds want pending specs (Submit
// runs on goroutines; the claim must not race the enqueue).
func waitPending(t *testing.T, q *Queue, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Pending < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d pending specs (stats %+v)", want, q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueueClaimComplete(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(0, clk.Now)

	specs := []wire.Spec{qspec(0), qspec(1), qspec(2)}
	var resc [3]<-chan wire.Result
	var errc [3]<-chan error
	for i, s := range specs {
		resc[i], errc[i] = submitAsync(q, s)
	}
	waitPending(t, q, 3)

	id, claimed := q.Claim(noWait, "w1", 10)
	if id == 0 || len(claimed) != 3 {
		t.Fatalf("claim: lease %d, %d specs, want a lease over 3", id, len(claimed))
	}
	for _, s := range claimed {
		if err := q.Complete(id, s.Key(), wire.Result{Cycles: s.Timer}, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := range specs {
		if err := <-errc[i]; err != nil {
			t.Fatal(err)
		}
		if res := <-resc[i]; res.Cycles != specs[i].Timer {
			t.Fatalf("spec %d: got cycles %d, want %d", i, res.Cycles, specs[i].Timer)
		}
	}
	st := q.Stats()
	if st.Done != 3 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats after completion: %+v", st)
	}
	if _, more := q.Claim(noWait, "w1", 10); more != nil {
		t.Fatal("claim on an empty queue returned specs")
	}
}

func TestQueueLeaseExpirySteals(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(10*time.Second, clk.Now)

	resc, errc := submitAsync(q, qspec(0))
	waitPending(t, q, 1)

	dead, specs := q.Claim(noWait, "dead-worker", 10)
	if dead == 0 || len(specs) != 1 {
		t.Fatalf("claim: lease %d over %d specs", dead, len(specs))
	}
	// Before expiry nothing is stealable.
	if id, _ := q.Claim(noWait, "thief", 10); id != 0 {
		t.Fatal("live lease was stolen")
	}
	clk.Advance(11 * time.Second)
	thief, stolen := q.Claim(noWait, "thief", 10)
	if thief == 0 || len(stolen) != 1 || stolen[0].Key() != qspec(0).Key() {
		t.Fatalf("expired lease not stolen: lease %d, specs %v", thief, stolen)
	}
	if live := q.Heartbeat(dead); live {
		t.Fatal("heartbeat revived an expired lease")
	}
	if err := q.Complete(thief, stolen[0].Key(), wire.Result{Cycles: 7}, false); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if res := <-resc; res.Cycles != 7 {
		t.Fatalf("stolen spec resolved with cycles %d, want 7", res.Cycles)
	}
	if st := q.Stats(); st.Stolen != 1 {
		t.Fatalf("stats.Stolen = %d, want 1 (%+v)", st.Stolen, st)
	}
}

func TestQueueHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(10*time.Second, clk.Now)

	_, errc := submitAsync(q, qspec(0))
	waitPending(t, q, 1)
	id, _ := q.Claim(noWait, "w1", 10)

	for i := 0; i < 3; i++ {
		clk.Advance(8 * time.Second)
		if !q.Heartbeat(id) {
			t.Fatalf("heartbeat %d lost a live lease", i)
		}
	}
	if thief, _ := q.Claim(noWait, "thief", 10); thief != 0 {
		t.Fatal("heartbeated lease was stolen")
	}
	if err := q.Complete(id, qspec(0).Key(), wire.Result{Cycles: 1}, false); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestQueueLateAndDuplicateCompletions(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(10*time.Second, clk.Now)

	resc, errc := submitAsync(q, qspec(0))
	waitPending(t, q, 1)
	key := qspec(0).Key()

	slow, _ := q.Claim(noWait, "slow", 10)
	clk.Advance(11 * time.Second)
	fast, stolen := q.Claim(noWait, "fast", 10)
	if fast == 0 || len(stolen) != 1 {
		t.Fatalf("steal failed: lease %d over %d specs", fast, len(stolen))
	}

	// The slow worker finishes anyway: its lease is gone, but the result
	// is a pure function of the spec, so it is accepted (Late) — and it
	// must be pulled out of the fast worker's lease so nobody redoes it.
	if err := q.Complete(slow, key, wire.Result{Cycles: 42}, false); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if res := <-resc; res.Cycles != 42 {
		t.Fatalf("late completion delivered cycles %d, want 42", res.Cycles)
	}
	// The fast worker's completion of the same spec is a dropped
	// duplicate, not an error and not a second delivery.
	if err := q.Complete(fast, key, wire.Result{Cycles: 99}, false); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Late != 1 || st.Duplicates != 1 || st.Done != 1 || st.Leased != 0 {
		t.Fatalf("stats after late+duplicate: %+v", st)
	}
}

func TestQueueNackReturnsToFront(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(0, clk.Now)

	for i := 0; i < 4; i++ {
		submitAsync(q, qspec(i))
	}
	waitPending(t, q, 4)

	id, claimed := q.Claim(noWait, "draining", 2)
	if len(claimed) != 2 {
		t.Fatalf("claimed %d specs, want 2", len(claimed))
	}
	if err := q.Nack(id, nil); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Nacked != 2 || st.Pending != 4 || st.Leased != 0 {
		t.Fatalf("stats after nack: %+v", st)
	}
	// Nacked work comes back at the queue front: the next claim must
	// hand out exactly the two returned specs first.
	_, next := q.Claim(noWait, "successor", 2)
	got := map[string]bool{next[0].Key(): true, next[1].Key(): true}
	if !got[claimed[0].Key()] || !got[claimed[1].Key()] {
		t.Fatalf("nacked specs were not re-dispatched first: got %v, want %v and %v",
			got, claimed[0].Key(), claimed[1].Key())
	}
	// Nacking a dead lease is a quiet no-op (the reclaimer owns it now).
	if err := q.Nack(9999, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFailPropagatesToSubmitter(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(0, clk.Now)

	_, errc := submitAsync(q, qspec(0))
	waitPending(t, q, 1)
	id, _ := q.Claim(noWait, "w1", 1)
	if err := q.Fail(id, qspec(0).Key(), "unknown codec nope"); err != nil {
		t.Fatal(err)
	}
	err := <-errc
	if err == nil || !strings.Contains(err.Error(), "unknown codec nope") {
		t.Fatalf("submitter error = %v, want the worker's terminal message", err)
	}
}

func TestQueueSubmitCoalescesDuplicates(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(0, clk.Now)

	ra, ea := submitAsync(q, qspec(0))
	rb, eb := submitAsync(q, qspec(0))
	waitPending(t, q, 1)
	if st := q.Stats(); st.Submitted != 1 {
		t.Fatalf("two submits of one spec enqueued %d items", st.Submitted)
	}
	id, specs := q.Claim(noWait, "w1", 10)
	if len(specs) != 1 {
		t.Fatalf("claimed %d specs, want the coalesced 1", len(specs))
	}
	if err := q.Complete(id, specs[0].Key(), wire.Result{Cycles: 5}, true); err != nil {
		t.Fatal(err)
	}
	for _, ec := range []<-chan error{ea, eb} {
		if err := <-ec; err != nil {
			t.Fatal(err)
		}
	}
	if (<-ra).Cycles != 5 || (<-rb).Cycles != 5 {
		t.Fatal("coalesced submitters disagree on the result")
	}
}

func TestQueueSubmitHonorsContext(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(0, clk.Now)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := q.Submit(ctx, qspec(0)); err == nil {
		t.Fatal("Submit returned despite a cancelled context and no worker")
	}
}

// TestQueueHeldClaimWakesOnArrival: a claim waiting on the empty queue
// is handed a submitted spec at once, and so is the next one when a
// draining worker nacks that spec back.
func TestQueueHeldClaimWakesOnArrival(t *testing.T) {
	q := NewQueue(0, newFakeClock().Now)
	held := heldClaim(t, q, "first", 5*time.Second)
	submitAsync(q, qspec(0))
	if specs := <-held; len(specs) != 1 || specs[0].Key() != qspec(0).Key() {
		t.Fatalf("held claim got %d specs after the submit, want the submitted one", len(specs))
	}

	held = heldClaim(t, q, "successor", 5*time.Second)
	if err := q.Nack(1, nil); err != nil { // lease IDs count from 1
		t.Fatal(err)
	}
	if specs := <-held; len(specs) != 1 || specs[0].Key() != qspec(0).Key() {
		t.Fatalf("held claim got %d specs after the nack, want the nacked one", len(specs))
	}
}

// TestQueueHeldClaimStealsExpiredLease: no event announces a lease
// expiry, so a claim held across one comes back empty when its context
// expires, and the next claim round steals the batch. A queue call that reclaims an expired
// lease meanwhile wakes a held claim at once.
func TestQueueHeldClaimStealsExpiredLease(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(10*time.Second, clk.Now)
	submitAsync(q, qspec(0))
	waitPending(t, q, 1)
	q.Claim(noWait, "dead-worker", 10)

	held := heldClaim(t, q, "thief", 20*time.Millisecond)
	clk.Advance(11 * time.Second)
	if specs := <-held; specs != nil {
		t.Fatalf("held claim saw an expiry no event announced: %d specs", len(specs))
	}
	thief, stolen := q.Claim(noWait, "thief", 10)
	if thief == 0 || len(stolen) != 1 {
		t.Fatalf("next claim round did not steal the expired lease: lease %d over %d specs", thief, len(stolen))
	}

	// The thief dies too; this time a heartbeat from a third worker runs
	// the reclaim, and the re-enqueue wakes the waiting claim.
	held = heldClaim(t, q, "heir", 5*time.Second)
	clk.Advance(11 * time.Second)
	q.Heartbeat(thief)
	if specs := <-held; len(specs) != 1 {
		t.Fatalf("held claim got %d specs after the reclaim, want the stolen one", len(specs))
	}
	if st := q.Stats(); st.Stolen != 2 {
		t.Fatalf("stats.Stolen = %d, want 2 (%+v)", st.Stolen, st)
	}
}
