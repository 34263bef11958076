package driver

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
)

// defaultFleetPool is the executor fan-out width in pull mode when
// -workers is left at its default: the leader cannot know the fleet's
// capacity ahead of time (workers come and go), so it keeps enough
// submissions outstanding that every claimer finds a full batch.
const defaultFleetPool = 128

// conn is a connected execution topology: the backend the executor
// runs over, how wide to fan out, and what the summary record reports.
type conn struct {
	// backend executes specs; nil selects the in-process pool.
	backend experiment.Backend
	// poolSize is the executor fan-out width.
	poolSize int
	// name labels the topology in the summary record: "local" or
	// "pull".
	name string
	// addr is the leader's listen address (host:port), the one workers
	// are pointed at; "" when local.
	addr string

	fb *fleet.Backend
	hs *http.Server
}

// close stops whatever the topology started. Safe on every mode.
func (c *conn) close() {
	if c.hs != nil {
		_ = c.hs.Close()
	}
}

// connect picks the execution topology: the in-process pool, or a
// pull-queue leader on -fleet. Misconfiguration is an error here — a
// sweep should fail fast, not at its first dispatched run.
func connect(prog string, f *Flags, stderr io.Writer) (*conn, error) {
	switch {
	case (f.tlsCert != "") != (f.tlsKey != ""):
		return nil, Usagef("-tls-cert and -tls-key come as a pair")
	case f.tlsCert != "" && f.fleet == "":
		return nil, Usagef("-tls-cert/-tls-key secure the -fleet leader endpoint; they need -fleet")
	}
	if f.fleet == "" {
		return &conn{poolSize: f.workers, name: "local"}, nil
	}

	// The wall clock drives real lease expiry here; it never reaches a
	// result or cache key (tests inject fake clocks instead).
	q := fleet.NewQueue(f.lease, time.Now)
	leader := fleet.NewLeader(q, f.token)
	hs := &http.Server{Handler: leader.Handler()}
	ln, err := net.Listen("tcp", f.fleet)
	if err != nil {
		return nil, fmt.Errorf("fleet leader: %w", err)
	}
	go func() {
		var serr error
		if f.tlsCert != "" {
			serr = hs.ServeTLS(ln, f.tlsCert, f.tlsKey)
		} else {
			serr = hs.Serve(ln)
		}
		if serr != nil && serr != http.ErrServerClosed {
			_, _ = fmt.Fprintf(stderr, "%s: fleet leader: %v\n", prog, serr)
		}
	}()
	scheme := "http"
	if f.tlsCert != "" {
		scheme = "https"
	}
	_, _ = fmt.Fprintf(stderr, "%s: fleet leader listening on %s://%s (lease %v); start workers with: bpserve -pull %s\n",
		prog, scheme, ln.Addr(), q.Lease(), ln.Addr())
	poolSize := defaultFleetPool
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "workers" {
			poolSize = f.workers
		}
	})
	fb := leader.Backend()
	return &conn{backend: fb, poolSize: poolSize, name: "pull",
		addr: ln.Addr().String(), fb: fb, hs: hs}, nil
}
