package trace

import (
	"bytes"
	"testing"

	"xorbp/internal/predictor"
	"xorbp/internal/workload"
)

// scripted emits a fixed event list once.
type scripted struct {
	events []workload.BranchEvent
	pos    int
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Next(ev *workload.BranchEvent) {
	*ev = s.events[s.pos]
	s.pos++
}

// TestRoundTrip: a capture of n events replays the source stream's first
// n events, with not-taken targets zeroed, and loops back to its first
// event after the last.
func TestRoundTrip(t *testing.T) {
	const n = 20000
	rec, err := Record(workload.NewGenerator(workload.MustByName("gcc"), 7), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != n {
		t.Fatalf("recorded %d events, want %d", rec.Len(), n)
	}
	src := workload.NewGenerator(workload.MustByName("gcc"), 7)
	want := make([]workload.BranchEvent, n)
	zeroed := 0
	for i := range want {
		src.Next(&want[i])
		if !want[i].Taken && want[i].Target != 0 {
			want[i].Target = 0
			zeroed++
		}
	}
	var got workload.BranchEvent
	for i := 0; i < 2*n+n/2; i++ { // past the end twice
		rec.Next(&got)
		if got != want[i%n] {
			t.Fatalf("replayed event %d = %+v, want source event %d = %+v", i, got, i%n, want[i%n])
		}
	}
	t.Logf("%d not-taken targets zeroed", zeroed)
}

// TestEventFieldFidelity: every class and flag combination survives the
// capture, and a not-taken branch's target is captured as zero.
func TestEventFieldFidelity(t *testing.T) {
	events := []workload.BranchEvent{
		{PC: 0x1000, Class: predictor.CondDirect, Taken: true, Target: 0x2000, Gap: 1},
		{PC: 0x1004, Class: predictor.CondDirect, Taken: false, Gap: 63},
		{PC: 0x99999999, Class: predictor.Indirect, Taken: true, Target: 0x10, Gap: 7, Syscall: true},
		{PC: 0x8, Class: predictor.Return, Taken: true, Target: 0xffffffff, Gap: 255},
		{PC: 0x40, Class: predictor.Call, Taken: true, Target: 0x44, Gap: 2},
		{PC: 0x44, Class: predictor.UncondDirect, Taken: true, Target: 0x40, Gap: 12},
		{PC: 0x48, Class: predictor.CondDirect, Taken: false, Target: 0x80, Gap: 3, Syscall: true},
	}
	rec, err := Record(&scripted{events: events}, len(events), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got workload.BranchEvent
	for i, w := range events {
		if !w.Taken {
			w.Target = 0
		}
		rec.Next(&got)
		if got != w {
			t.Fatalf("event %d: got %+v, want %+v", i, got, w)
		}
	}
}

// TestTraceDrivesSimulator: a capture is usable anywhere a generator
// is, under its source's name.
func TestTraceDrivesSimulator(t *testing.T) {
	prog, err := Record(workload.NewGenerator(workload.MustByName("hmmer"), 5), 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	var p workload.Program = prog
	var ev workload.BranchEvent
	conds := 0
	for i := 0; i < 10000; i++ {
		p.Next(&ev)
		if ev.Class == predictor.CondDirect {
			conds++
		}
	}
	if conds == 0 {
		t.Fatal("replayed trace has no conditional branches")
	}
	if p.Name() != "hmmer.trace" {
		t.Fatalf("name = %q, want hmmer.trace", p.Name())
	}
}

// TestProgramNextBatchMatchesNext: NextBatch loops over the capture
// exactly like Next, with a ring that straddles the wrap at varying
// offsets.
func TestProgramNextBatchMatchesNext(t *testing.T) {
	src := func() workload.Program { return workload.NewGenerator(workload.MustByName("gcc"), 5) }
	pa, err := Record(src(), 3000, nil)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Record(src(), 3000, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ev workload.BranchEvent
	ring := make([]workload.BranchEvent, 331)
	for round := 0; round < 20; round++ {
		if n := pb.NextBatch(ring); n != len(ring) {
			t.Fatalf("round %d: NextBatch filled %d of %d", round, n, len(ring))
		}
		for i := range ring {
			pa.Next(&ev)
			if ring[i] != ev {
				t.Fatalf("round %d event %d differs between NextBatch and Next", round, i)
			}
		}
	}
}

// TestRecordErrors: an empty capture, which Next and NextBatch could not
// loop over, and a writer, which nothing reads back, are both refused.
func TestRecordErrors(t *testing.T) {
	gen := workload.NewGenerator(workload.MustByName("mcf"), 1)
	for _, n := range []int{0, -1} {
		if p, err := Record(gen, n, nil); err == nil {
			t.Fatalf("Record(n=%d) = %d events, want an error", n, p.Len())
		}
	}
	var buf bytes.Buffer
	if _, err := Record(gen, 100, &buf); err == nil {
		t.Fatal("Record with a writer succeeded")
	}
	if buf.Len() != 0 {
		t.Fatalf("Record wrote %d bytes", buf.Len())
	}
}
