package driver

import (
	"fmt"
	"os"

	"xorbp/internal/chaos"
	"xorbp/internal/runcache"
)

// Chaos is the drivers' view of an active fault-injection plan: the
// injector plus the ready-made seam adapter the store wiring consumes.
type Chaos struct {
	Inj *chaos.Injector
}

// LoadChaos loads and arms a -chaos plan file. Returns nil when path
// is empty (no chaos); exits on an invalid plan — a typo'd plan must
// not silently run fault-free.
func LoadChaos(prog, path string) *Chaos {
	if path == "" {
		return nil
	}
	plan, err := chaos.LoadPlan(path)
	if err != nil {
		fatal(prog, 1, "%v", err)
	}
	inj, err := chaos.NewInjector(plan)
	if err != nil {
		fatal(prog, 1, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "%s: chaos plan %s armed (seed %d, %d rules)\n",
		prog, path, plan.Seed, len(plan.Rules))
	return &Chaos{Inj: inj}
}

// ArmStore attaches the cache write-path faults to the run cache
// store. No-op when chaos is off or the store is nil.
func (c *Chaos) ArmStore(st *runcache.Store) {
	if c == nil || st == nil {
		return
	}
	st.SetFileFault(chaos.NewCacheFaults(c.Inj))
}

// Report prints the injections the plan actually fired, for the end of
// a chaos run's stderr.
func (c *Chaos) Report(prog string) {
	if c == nil {
		return
	}
	lines := c.Inj.CountLines()
	if len(lines) == 0 {
		fmt.Fprintf(os.Stderr, "%s: chaos: no faults fired\n", prog)
		return
	}
	for _, l := range lines {
		fmt.Fprintf(os.Stderr, "%s: chaos: injected %s\n", prog, l)
	}
}
