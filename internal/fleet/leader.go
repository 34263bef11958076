package fleet

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"xorbp/internal/wire"
)

// The queue wire protocol: every message carries the leader's schema
// version implicitly (claims echo it; a worker on a different schema
// must refuse the batch rather than compute incompatible results).
// These types are leader↔worker control traffic, not cache content —
// changing them never invalidates stored results.

// ClaimRequest is the body of POST /queue/claim.
type ClaimRequest struct {
	// Worker identifies the claimer (stable per process; host:pid by
	// convention) for lease bookkeeping and the leader's log.
	Worker string `json:"worker"`
	// Max bounds the batch size handed out under one lease.
	Max int `json:"max"`
	// Schema is the worker's wire schema version. The leader refuses a
	// mismatched claim outright (409) so an incompatible worker fails
	// its first poll with a clear "rebuild one side" error instead of
	// computing results nobody can decode. Empty skips the check (the
	// worker-side check in Run still applies).
	Schema string `json:"schema,omitempty"`
}

// ClaimResponse is the reply to a claim.
type ClaimResponse struct {
	Schema string `json:"schema"`
	// Lease is 0 when the leader held the claim open for idleWait and
	// no work arrived; Specs is then empty and the worker asks again.
	Lease   uint64      `json:"lease,omitempty"`
	Specs   []wire.Spec `json:"specs,omitempty"`
	LeaseMS int64       `json:"lease_ms,omitempty"`
}

// CompleteRequest is the body of POST /queue/complete: one resolved
// spec of a lease. Err marks a terminal validation failure — the spec
// can never run anywhere, so the sweep must fail loudly.
type CompleteRequest struct {
	Lease  uint64      `json:"lease"`
	Key    string      `json:"key"`
	Result wire.Result `json:"result"`
	Cached bool        `json:"cached,omitempty"`
	Err    string      `json:"error,omitempty"`
}

// HeartbeatRequest is the body of POST /queue/heartbeat.
type HeartbeatRequest struct {
	Lease uint64 `json:"lease"`
}

// HeartbeatResponse reports whether the lease is still live; a false
// Live tells the worker its batch has been forfeited to the fleet.
type HeartbeatResponse struct {
	Live bool `json:"live"`
}

// NackRequest is the body of POST /queue/nack: a draining worker hands
// the named outstanding specs of its lease back (nil/empty = all).
type NackRequest struct {
	Lease uint64   `json:"lease"`
	Keys  []string `json:"keys,omitempty"`
}

// OK is the empty success body of the queue's state-changing endpoints.
type OK struct {
	OK bool `json:"ok"`
}

// idleWait bounds how long the leader holds an empty claim open: long
// enough to keep an idle fleet's claim traffic trivial, short enough
// that an idle worker notices a drain, and an expired lease (which no
// event announces) is stolen by the next claim round, promptly.
const idleWait = 200 * time.Millisecond

// maxQueueBody bounds a queue-endpoint request body. A claim or nack
// is tiny; a complete carries one canonical result (well under a
// kilobyte). Anything larger is garbage.
const maxQueueBody = 1 << 20

// Leader serves a Queue over HTTP — the endpoint bpserve -pull workers
// poll. An optional bearer token (constant-time compared) authenticates
// peers, and the driver can wrap the listener in TLS for untrusted
// networks.
type Leader struct {
	q     *Queue
	token string
}

// NewLeader wraps a queue in the HTTP protocol. token "" leaves the
// endpoint open (the trusted-LAN default).
func NewLeader(q *Queue, token string) *Leader {
	return &Leader{q: q, token: token}
}

// Queue returns the wrapped queue.
func (l *Leader) Queue() *Queue { return l.q }

// Backend returns the executor-facing half: an experiment.Backend
// whose Run submits the spec to the queue and blocks until a worker
// resolves it.
func (l *Leader) Backend() *Backend { return &Backend{q: l.q} }

// authorized checks the request's bearer token against the leader's.
func (l *Leader) authorized(r *http.Request) bool {
	if l.token == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(l.token)) == 1
}

// Handler returns the queue-protocol HTTP handler.
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", l.handleHealth)
	mux.HandleFunc("/queue/claim", l.handleClaim)
	mux.HandleFunc("/queue/heartbeat", l.handleHeartbeat)
	mux.HandleFunc("/queue/complete", l.handleComplete)
	mux.HandleFunc("/queue/nack", l.handleNack)
	return mux
}

// handleHealth answers reachability checks from operators and scripts
// (CI polls it before starting workers): the leader's schema and the
// live lease count. Workers never call it; a claim carries its own
// schema check.
func (l *Leader) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !l.authorized(r) {
		writeError(w, http.StatusUnauthorized, "missing or wrong bearer token")
		return
	}
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "healthz is GET-only")
		return
	}
	st := l.q.Stats()
	writeJSON(w, http.StatusOK, wire.Health{
		Status:   "ok",
		Schema:   wire.SchemaVersion(),
		Inflight: st.Leased,
		Runs:     uint64(st.Done),
	})
}

// decodeInto strictly parses a queue-protocol body.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueueBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return false
	}
	return true
}

// guard centralizes the POST+token preamble of the state-changing
// endpoints.
func (l *Leader) guard(w http.ResponseWriter, r *http.Request) bool {
	if !l.authorized(r) {
		writeError(w, http.StatusUnauthorized, "missing or wrong bearer token")
		return false
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "queue endpoints are POST-only")
		return false
	}
	return true
}

func (l *Leader) handleClaim(w http.ResponseWriter, r *http.Request) {
	if !l.guard(w, r) {
		return
	}
	var req ClaimRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Schema != "" && req.Schema != wire.SchemaVersion() {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("worker %s runs schema %q, this leader %q — rebuild one side",
				req.Worker, req.Schema, wire.SchemaVersion()))
		return
	}
	// The hold ends early when the worker hangs up or the server closes
	// the connection, so shutdown never waits out a held claim.
	ctx, cancel := context.WithTimeout(r.Context(), idleWait)
	defer cancel()
	id, specs := l.q.Claim(ctx, req.Worker, req.Max)
	resp := ClaimResponse{Schema: wire.SchemaVersion()}
	if id != 0 {
		resp.Lease = id
		resp.Specs = specs
		resp.LeaseMS = int64(l.q.Lease() / time.Millisecond)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (l *Leader) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !l.guard(w, r) {
		return
	}
	var req HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Live: l.q.Heartbeat(req.Lease)})
}

func (l *Leader) handleComplete(w http.ResponseWriter, r *http.Request) {
	if !l.guard(w, r) {
		return
	}
	var req CompleteRequest
	if !decodeInto(w, r, &req) {
		return
	}
	var err error
	if req.Err != "" {
		err = l.q.Fail(req.Lease, req.Key, req.Err)
	} else {
		err = l.q.Complete(req.Lease, req.Key, req.Result, req.Cached)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, OK{OK: true})
}

func (l *Leader) handleNack(w http.ResponseWriter, r *http.Request) {
	if !l.guard(w, r) {
		return
	}
	var req NackRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := l.q.Nack(req.Lease, req.Keys); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, OK{OK: true})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, wire.Error{Error: msg})
}

// Backend is the executor-facing half of the pull queue: a drop-in
// experiment.Backend (beside LocalBackend) whose Run
// enqueues the spec and blocks until some worker claims and resolves
// it. Fan-out comes from the executor running many Runs concurrently;
// scheduling comes from workers pulling at their own pace.
type Backend struct {
	q       *Queue
	replays atomic.Uint64
}

// Run submits one spec to the queue and waits out its resolution.
func (b *Backend) Run(ctx context.Context, spec wire.Spec) (wire.Result, error) {
	res, cached, err := b.q.Submit(ctx, spec)
	if err != nil {
		return wire.Result{}, err
	}
	if cached {
		b.replays.Add(1)
	}
	return res, nil
}

// Replays counts dispatched runs the fleet answered from worker-side
// stores instead of simulating.
func (b *Backend) Replays() uint64 { return b.replays.Load() }
