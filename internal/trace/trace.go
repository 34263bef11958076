// Package trace captures a branch stream in memory and replays it. A
// capture decouples the replayed events from the generator that made
// them: replay pays a copy per event instead of the generator's draws,
// and loops over the capture, so a simulation can run longer than it.
package trace

import (
	"errors"
	"io"

	"xorbp/internal/workload"
)

// Program is an in-memory capture replayed as a workload.Program that
// loops over the recorded events.
type Program struct {
	name   string
	events []workload.BranchEvent
	pos    int
}

// Record captures the next n events of src into a replayable Program.
// The target of a not-taken branch is architecturally irrelevant, so it
// is captured as zero. w must be nil: captures are not written out.
func Record(src workload.Program, n int, w io.Writer) (*Program, error) {
	if w != nil {
		return nil, errors.New("trace: captures are in memory only; pass a nil writer")
	}
	if n < 1 {
		// An empty capture has nothing to loop over: Next would index
		// past the end and NextBatch would never fill its ring.
		return nil, errors.New("trace: empty capture")
	}
	p := &Program{name: src.Name() + ".trace", events: make([]workload.BranchEvent, n)}
	var ev workload.BranchEvent
	for i := range p.events {
		src.Next(&ev)
		if !ev.Taken {
			ev.Target = 0
		}
		p.events[i] = ev
	}
	return p, nil
}

// Name implements workload.Program.
func (p *Program) Name() string { return p.name }

// Len returns the captured event count.
func (p *Program) Len() int { return len(p.events) }

// Next implements workload.Program, looping over the capture.
func (p *Program) Next(ev *workload.BranchEvent) {
	*ev = p.events[p.pos]
	p.pos++
	if p.pos == len(p.events) {
		p.pos = 0
	}
}

// NextBatch implements workload.BatchProgram: recorded events are copied
// straight into the caller's ring, wrapping over the capture boundary.
func (p *Program) NextBatch(evs []workload.BranchEvent) int {
	n := 0
	for n < len(evs) {
		c := copy(evs[n:], p.events[p.pos:])
		p.pos += c
		if p.pos == len(p.events) {
			p.pos = 0
		}
		n += c
	}
	return n
}

var _ workload.BatchProgram = (*Program)(nil)
