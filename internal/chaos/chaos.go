// Package chaos is the seeded, fully deterministic fault-injection
// layer behind cmd/chaosbench. It threads synthetic failures through the
// engine's existing seams — the run cache's record writes (bit flips,
// truncation, ENOSPC) and the pull fleet's worker loop (crash mid-lease,
// heartbeat loss, duplicate completions, leader restart) — without
// those packages ever importing this one: each seam exposes a small
// hook interface (runcache.FileFault, fleet.WorkerFaults) that chaos
// implements.
//
// Every decision flows from a FaultPlan: a seed plus per-fault rules.
// Each rule owns an independent SplitMix64 stream derived from the plan
// seed and the fault's name, and consumes exactly one draw per decision
// point, so a failure run replays bit-for-bit from its plan — no wall
// clock, no global randomness. The point of the whole layer is the
// invariant it gates: tables rendered under faults must be
// byte-identical to the fault-free serial run.
package chaos

// Seam names group the fault kinds by the subsystem they perturb. They
// appear in reports and documentation; injection sites consult concrete
// fault kinds, not seams.
const (
	SeamCacheFile = "cachefile" // runcache record writes
	SeamFleet     = "fleet"     // pull-queue worker/leader lifecycle
)

// Fault is one injectable fault kind. Implementations are stateless
// markers; the Injector owns all state. Name is the wire vocabulary of
// FaultPlan rules; Seam names the subsystem the fault perturbs.
type Fault interface {
	Name() string
	Seam() string
}

// BitFlip flips one deterministic bit in a cache record on its way to
// disk: the in-memory copy stays good, and the next Open must reject the
// record by its checksum and count it quarantined.
type BitFlip struct{}

func (BitFlip) Name() string { return "bitflip" }
func (BitFlip) Seam() string { return SeamCacheFile }

// Truncate writes only the first half of a cache record, modeling a
// process killed in the middle of its append: the torn record must cost
// only itself at the next Open.
type Truncate struct{}

func (Truncate) Name() string { return "truncate" }
func (Truncate) Seam() string { return SeamCacheFile }

// ENOSPC fails a cache record write outright, as a full disk would. The
// store keeps the entry in memory and counts the put error.
type ENOSPC struct{}

func (ENOSPC) Name() string { return "enospc" }
func (ENOSPC) Seam() string { return SeamCacheFile }

// WorkerCrash kills a pull worker mid-batch: unfinished specs are
// neither completed nor nacked, the heartbeat stops, and the fleet
// must steal the stalled lease.
type WorkerCrash struct{}

func (WorkerCrash) Name() string { return "workercrash" }
func (WorkerCrash) Seam() string { return SeamFleet }

// HeartbeatLoss suppresses one heartbeat post, modeling a dropped
// packet; enough in a row and the lease lapses.
type HeartbeatLoss struct{}

func (HeartbeatLoss) Name() string { return "heartbeatloss" }
func (HeartbeatLoss) Seam() string { return SeamFleet }

// DupComplete reports one completion twice, exercising the queue's
// first-wins idempotency.
type DupComplete struct{}

func (DupComplete) Name() string { return "dupcomplete" }
func (DupComplete) Seam() string { return SeamFleet }

// LeaderRestart tells an orchestrating harness (cmd/chaosbench) to
// kill and restart the pull-queue leader at this decision point; the
// restarted sweep must replay the finished cells from the run cache and
// simulate only the remainder, with workers rejoining.
type LeaderRestart struct{}

func (LeaderRestart) Name() string { return "leaderrestart" }
func (LeaderRestart) Seam() string { return SeamFleet }

// FaultByName resolves a FaultPlan rule's fault name to its kind.
// bpvet's exhaustive analyzer holds this registry and FaultNames
// mutually complete.
func FaultByName(name string) (Fault, bool) {
	switch name {
	case BitFlip{}.Name():
		return BitFlip{}, true
	case Truncate{}.Name():
		return Truncate{}, true
	case ENOSPC{}.Name():
		return ENOSPC{}, true
	case WorkerCrash{}.Name():
		return WorkerCrash{}, true
	case HeartbeatLoss{}.Name():
		return HeartbeatLoss{}, true
	case DupComplete{}.Name():
		return DupComplete{}, true
	case LeaderRestart{}.Name():
		return LeaderRestart{}, true
	default:
		return nil, false
	}
}

// FaultNames lists every registered fault kind — the FaultPlan rule
// vocabulary, in documentation order.
func FaultNames() []string {
	return []string{
		"bitflip",
		"truncate",
		"enospc",
		"workercrash",
		"heartbeatloss",
		"dupcomplete",
		"leaderrestart",
	}
}
