package driver

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
)

// defaultFleetPool is the executor fan-out width in pull mode when
// -workers is left at its default: the leader cannot know the fleet's
// capacity ahead of time (workers come and go), so it keeps enough
// submissions outstanding that every claimer finds a full batch.
const defaultFleetPool = 128

// FleetFlags is the dispatch-topology flag bundle the sweep drivers
// share; register it with AddFleetFlags before flag.Parse.
type FleetFlags struct {
	// Fleet runs the invocation as a pull-queue leader on this listen
	// address: specs are queued, bpserve -pull workers claim them.
	Fleet *string
	// Lease is the pull-queue claim lease: a worker silent this long
	// forfeits its batch to the rest of the fleet.
	Lease *time.Duration
	// TLSCert/TLSKey serve the -fleet leader endpoint over TLS.
	TLSCert *string
	TLSKey  *string
}

// AddFleetFlags registers the shared dispatch-topology flags on the
// default flag set.
func AddFleetFlags() *FleetFlags {
	return &FleetFlags{
		Fleet:   flag.String("fleet", "", "run as a pull-queue leader on this listen address; bpserve -pull workers claim the specs"),
		Lease:   flag.Duration("fleet-lease", fleet.DefaultLease, "with -fleet: claim lease; a worker silent this long forfeits its batch"),
		TLSCert: flag.String("tls-cert", "", "with -fleet: serve the leader endpoint over TLS with this certificate"),
		TLSKey:  flag.String("tls-key", "", "with -fleet: private key for -tls-cert"),
	}
}

// Conn is a connected execution topology: the backend the executor
// should run over, how wide to fan out, and the bookkeeping the final
// summary wants. Close releases whatever the topology started (the
// leader listener).
type Conn struct {
	// Backend executes specs; nil selects the in-process pool.
	Backend experiment.Backend
	// PoolSize is the executor fan-out width.
	PoolSize int
	// Name labels the topology in the summary record: "local" or
	// "pull".
	Name string
	// Addr is the leader's listen address (host:port), the one workers
	// are pointed at; "" when local.
	Addr string

	queue *fleet.Queue
	fb    *fleet.Backend
	hs    *http.Server
}

// WorkerCached counts dispatched runs the fleet answered from
// worker-side stores instead of simulating (0 when local).
func (c *Conn) WorkerCached() uint64 {
	if c.fb == nil {
		return 0
	}
	return c.fb.Replays()
}

// Queue exposes the pull queue (nil outside pull mode) for end-of-run
// reporting.
func (c *Conn) Queue() *fleet.Queue { return c.queue }

// Close stops whatever the topology started. Safe on every mode.
func (c *Conn) Close() {
	if c.hs != nil {
		_ = c.hs.Close()
	}
}

// ConnectOptions names Connect's inputs; Fleet may be nil when the
// caller registers no fleet surface.
type ConnectOptions struct {
	Prog       string
	Token      string
	Workers    int
	WorkersSet bool
	Fleet      *FleetFlags
}

// Connect picks the execution topology: the in-process pool, or a
// pull-queue leader on -fleet. Misconfiguration exits — a sweep should
// fail fast, not at its first dispatched run.
func Connect(opts ConnectOptions) *Conn {
	var (
		fleetAddr, tlsCert, tlsKey string
		leaseDur                   time.Duration
	)
	if f := opts.Fleet; f != nil {
		fleetAddr, leaseDur = *f.Fleet, *f.Lease
		tlsCert, tlsKey = *f.TLSCert, *f.TLSKey
	}
	switch {
	case (tlsCert != "") != (tlsKey != ""):
		fatal(opts.Prog, 2, "-tls-cert and -tls-key come as a pair")
	case tlsCert != "" && fleetAddr == "":
		fatal(opts.Prog, 2, "-tls-cert/-tls-key secure the -fleet leader endpoint; they need -fleet")
	}
	if fleetAddr == "" {
		return &Conn{PoolSize: opts.Workers, Name: "local"}
	}
	return connectFleet(opts.Prog, fleetAddr, opts.Token, leaseDur,
		tlsCert, tlsKey, opts.Workers, opts.WorkersSet)
}

// connectFleet starts a pull-queue leader and returns its submitting
// backend.
func connectFleet(prog, addr, token string, leaseDur time.Duration,
	tlsCert, tlsKey string, workers int, workersSet bool) *Conn {
	// The wall clock drives real lease expiry here; it never reaches a
	// result or cache key (tests inject fake clocks instead).
	q := fleet.NewQueue(leaseDur, time.Now)
	leader := fleet.NewLeader(q, token)
	hs := &http.Server{Handler: leader.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(prog, 1, "fleet leader: %v", err)
	}
	go func() {
		var serr error
		if tlsCert != "" {
			serr = hs.ServeTLS(ln, tlsCert, tlsKey)
		} else {
			serr = hs.Serve(ln)
		}
		if serr != nil && serr != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "%s: fleet leader: %v\n", prog, serr)
		}
	}()
	scheme := "http"
	if tlsCert != "" {
		scheme = "https"
	}
	fmt.Fprintf(os.Stderr, "%s: fleet leader listening on %s://%s (lease %v); start workers with: bpserve -pull %s\n",
		prog, scheme, ln.Addr(), q.Lease(), ln.Addr())
	poolSize := workers
	if !workersSet {
		poolSize = defaultFleetPool
	}
	fb := leader.Backend()
	return &Conn{Backend: fb, PoolSize: poolSize, Name: "pull",
		Addr: ln.Addr().String(), queue: q, fb: fb, hs: hs}
}

// fatal prints one driver-level configuration error and exits.
func fatal(prog string, code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
	StopProfiles()
	os.Exit(code)
}
