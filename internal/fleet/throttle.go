package fleet

import (
	"context"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/wire"
)

// Throttle wraps an execution backend with a fixed pre-simulation
// delay — the slow-worker model that bpserve -slow, CI's fleet-smoke
// topology and TestPullMatchesSerial use to build a skewed fleet on one
// machine. Results are untouched: a throttled worker is late, never
// wrong.
type Throttle struct {
	Inner experiment.Backend
	Delay time.Duration
}

// Run waits out the delay, then delegates.
func (t Throttle) Run(ctx context.Context, spec wire.Spec) (wire.Result, error) {
	if t.Delay > 0 {
		if err := sleepWall(ctx, t.Delay); err != nil {
			return wire.Result{}, err
		}
	}
	return t.Inner.Run(ctx, spec)
}
