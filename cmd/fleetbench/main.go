// Command fleetbench measures the fleet dispatch topologies against
// each other and writes the evidence behind STRATEGY_LEDGER.md.
//
// Usage:
//
//	fleetbench [-scale micro|bench] [-fleet 3] [-cap 4]
//	           [-skew 0] [-policies shard,pull] [-repeat] [-check]
//
// Every policy resolves the same workload — the full Figure 1 grid —
// on the same in-process fleet: N pull workers against a leader queue
// (real HTTP, real queue protocol) for `pull`, N store-sharing shard
// processes for `shard`, and a single local executor for `serial`,
// which always runs as the reference. -skew slows the last fleet
// member by the given per-simulation delay, turning the uniform fleet
// into the straggler fleet pull dispatch exists for.
//
// For each policy it reports wall time, speedup over serial, and the
// per-member simulation distribution, and it verifies that the
// rendered figure is byte-identical to the serial render — dispatch
// policy must never be observable in results. -check exits 1 on any
// divergence (CI runs this gate). -repeat runs the figure a second
// time on the same warm fleet (fresh executor, members keep their
// stores and the pull leader its queue).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
	"xorbp/internal/runcache"
	"xorbp/internal/wire"
)

func main() {
	var (
		scaleName = flag.String("scale", "micro", "workload scale: micro or bench")
		fleetN    = flag.Int("fleet", 3, "fleet size (workers / shards)")
		capacity  = flag.Int("cap", 4, "simulation slots per fleet member")
		skew      = flag.Duration("skew", 0, "per-simulation delay on the last fleet member (0 = uniform fleet)")
		policies  = flag.String("policies", "shard,pull", "comma-separated policies to measure besides serial (shard, pull)")
		repeat    = flag.Bool("repeat", false, "run the figure twice on the same warm fleet (second pass exercises the stores)")
		check     = flag.Bool("check", false, "exit 1 if any policy's render differs from serial")
	)
	flag.Parse()

	var scale experiment.Scale
	switch *scaleName {
	case "micro":
		scale = experiment.MicroScale()
	case "bench":
		scale = experiment.BenchScale()
	default:
		fmt.Fprintf(os.Stderr, "fleetbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *fleetN < 1 || *capacity < 1 {
		fmt.Fprintln(os.Stderr, "fleetbench: -fleet and -cap must be >= 1")
		os.Exit(2)
	}

	b := &bench{
		scale:  scale,
		n:      *fleetN,
		cap:    *capacity,
		skew:   *skew,
		repeat: *repeat,
	}

	fmt.Printf("# fleetbench: %d members x %d slots, scale %s, skew %s\n\n",
		b.n, b.cap, *scaleName, *skew)

	serial := b.serial()
	rows := []row{serial}
	diverged := false
	for _, p := range strings.Split(*policies, ",") {
		p = strings.TrimSpace(p)
		if p == "" || p == "serial" {
			continue
		}
		r := b.run(p, serial)
		if !r.identical {
			diverged = true
		}
		rows = append(rows, r)
	}

	printTable(rows, serial, b.repeat)
	if diverged {
		fmt.Fprintln(os.Stderr, "fleetbench: POLICY DIVERGENCE — a dispatch policy changed the rendered bytes")
		if *check {
			os.Exit(1)
		}
	}
}

// row is one measured policy.
type row struct {
	policy    string
	wall      time.Duration
	warmWall  time.Duration // -repeat second pass (0 when disabled)
	dist      []uint64      // simulations per fleet member, cold pass
	replays   uint64        // store replays, warm pass
	identical bool
	render    string
}

type bench struct {
	scale  experiment.Scale
	n, cap int
	skew   time.Duration
	repeat bool
}

// backendFor returns the local backend for fleet member i, throttled
// when i is the designated straggler.
func (b *bench) backendFor(i int) experiment.Backend {
	if b.skew > 0 && i == b.n-1 {
		return fleet.Throttle{Inner: experiment.LocalBackend{}, Delay: b.skew}
	}
	return experiment.LocalBackend{}
}

// render resolves the ledger workload through exec and returns the
// figure bytes.
func (b *bench) render(exec *experiment.Executor) string {
	out := experiment.NewSessionWith(b.scale, exec).Figure1().Render()
	if err := exec.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: executor failed: %v\n", err)
		os.Exit(1)
	}
	return out
}

func (b *bench) serial() row {
	start := time.Now()
	render := b.render(experiment.NewExecutor(1))
	r := row{policy: "serial", wall: time.Since(start), identical: true, render: render}
	if b.repeat {
		start = time.Now()
		b.render(experiment.NewExecutor(1))
		r.warmWall = time.Since(start)
	}
	return r
}

func (b *bench) run(policy string, serial row) row {
	switch policy {
	case "shard":
		return b.runShard(serial)
	case "pull":
		return b.runPull(serial)
	default:
		fmt.Fprintf(os.Stderr, "fleetbench: unknown policy %q (have serial, shard, pull)\n", policy)
		os.Exit(2)
		return row{}
	}
}

func (b *bench) runPull(serial row) row {
	q := fleet.NewQueue(0, time.Now)
	leader := fleet.NewLeader(q, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: leader.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := make([]*fleet.PullWorker, b.n)
	var store *runcache.Store
	if b.repeat {
		dir, err := os.MkdirTemp("", "fleetbench-pull-store-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		store, err = runcache.Open(dir, wire.SchemaVersion())
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
			os.Exit(1)
		}
	}
	for i := range workers {
		// Batch = slots: one spec of lookahead per slot keeps a straggler
		// from hoarding work it will finish last.
		w := fleet.NewPullWorker(ln.Addr().String(), fmt.Sprintf("bench-%d", i),
			b.backendFor(i), store, b.cap, b.cap)
		workers[i] = w
		go func() { _ = w.Run(ctx) }()
	}

	start := time.Now()
	render := b.render(experiment.NewExecutorWith(b.n*b.cap, leader.Backend()))
	r := row{policy: "pull", wall: time.Since(start), render: render,
		identical: render == serial.render}
	for _, w := range workers {
		r.dist = append(r.dist, w.Runs())
	}
	if b.repeat {
		start = time.Now()
		warm := b.render(experiment.NewExecutorWith(b.n*b.cap, leader.Backend()))
		r.warmWall = time.Since(start)
		if warm != serial.render {
			r.identical = false
		}
		for _, w := range workers {
			r.replays += w.Replays()
		}
	}
	return r
}

// runShard is the static baseline: b.n cooperating "processes" each
// own a fixed hash slice of the grid, sharing one store; a final
// unsharded run replays the union and renders. The straggler owns its
// slice no matter how slow it is — exactly the failure mode pull
// dispatch removes.
func (b *bench) runShard(serial row) row {
	dir, err := os.MkdirTemp("", "fleetbench-shard-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	store, err := runcache.Open(dir, wire.SchemaVersion())
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}

	start := time.Now()
	execs := make([]*experiment.Executor, b.n)
	done := make(chan int, b.n)
	for i := 0; i < b.n; i++ {
		exec := experiment.NewExecutorWith(b.cap, b.backendFor(i))
		exec.SetShard(i, b.n)
		exec.SetStore(store)
		execs[i] = exec
		go func(i int) {
			experiment.NewSessionWith(b.scale, exec).Figure1()
			done <- i
		}(i)
	}
	for i := 0; i < b.n; i++ {
		<-done
	}
	// Merge pass: replay the union out of the shared store.
	merge := experiment.NewExecutorWith(b.n*b.cap, experiment.LocalBackend{})
	merge.SetStore(store)
	render := b.render(merge)
	r := row{policy: "shard", wall: time.Since(start), render: render,
		identical: render == serial.render}
	for _, exec := range execs {
		r.dist = append(r.dist, exec.Runs())
	}
	if b.repeat {
		start = time.Now()
		warm := experiment.NewExecutorWith(b.n*b.cap, experiment.LocalBackend{})
		warm.SetStore(store)
		warmRender := b.render(warm)
		r.warmWall = time.Since(start)
		if warmRender != serial.render {
			r.identical = false
		}
		r.replays = uint64(warm.Replays())
	}
	return r
}

func printTable(rows []row, serial row, repeat bool) {
	header := "| policy | wall | speedup | runs per member | identical |"
	rule := "|---|---|---|---|---|"
	if repeat {
		header = "| policy | cold wall | speedup | warm wall | warm replays | runs per member | identical |"
		rule = "|---|---|---|---|---|---|---|"
	}
	fmt.Println(header)
	fmt.Println(rule)
	for _, r := range rows {
		dist := make([]string, len(r.dist))
		for i, d := range r.dist {
			dist[i] = fmt.Sprintf("%d", d)
		}
		distCol := strings.Join(dist, "/")
		if distCol == "" {
			distCol = "-"
		}
		ident := "yes"
		if !r.identical {
			ident = "NO"
		}
		speedup := float64(serial.wall) / float64(r.wall)
		if repeat {
			fmt.Printf("| %s | %s | %.2fx | %s | %d | %s | %s |\n",
				r.policy, fmtDur(r.wall), speedup, fmtDur(r.warmWall), r.replays, distCol, ident)
		} else {
			fmt.Printf("| %s | %s | %.2fx | %s | %s |\n",
				r.policy, fmtDur(r.wall), speedup, distCol, ident)
		}
	}
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Millisecond).String()
}
