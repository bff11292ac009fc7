// Package syncsrv is the coordination service of the multi-process
// traffic harness (internal/harness): a run-scoped HTTP server that
// worker processes use to register, phase-synchronize, and lease
// blocks of Fetch&Increment values from one shared counting-network
// counter.
//
// The barrier arrival path dogfoods the paper's own application: each
// barrier state is a counter.Barrier whose arrivals draw tickets from
// a counting-network counter, so the harness's phase synchronization
// is itself loading the data structure under test (release is
// arrival-ordered — see counter.Barrier for why ticket-ordered release
// would deadlock — and Quiesce checks the tickets' gap-free contract).
// Block leases (Hub.Draw) are served from a combining counter over the
// same network; each in-flight draw holds its own combining handle, so
// one combine pass serves every lease pending at that moment. The hub
// keeps a per-worker issue log, which the post-run checker
// (harness.CheckRun) cross-checks against what the worker processes
// report having received. Clients reach Draw over a binary draw
// channel and everything else over HTTP+JSON (see Server).
package syncsrv

import (
	"fmt"
	"slices"
	"sync"

	"countnet/internal/counter"
	"countnet/internal/network"
	"countnet/internal/obs"
)

// Hub is the in-memory coordination state behind one harness run. All
// methods are safe for concurrent use; Barrier returns with an error
// after Close.
type Hub struct {
	net  *network.Network
	draw *counter.CombiningCounter // shared value source for leases

	mu       sync.Mutex
	closed   bool
	handles  []*counter.CombiningHandle // free list: one handle per in-flight draw at peak
	barriers map[string]*counter.Barrier
	issued   map[string][]int64 // worker -> values leased to it, in issue order
	workers  map[string]bool
}

// NewHub builds a hub whose barriers and draw counter run on the given
// counting network.
func NewHub(net *network.Network) *Hub {
	return &Hub{
		net:      net,
		draw:     counter.NewCombiningCounter(net),
		barriers: map[string]*counter.Barrier{},
		issued:   map[string][]int64{},
		workers:  map[string]bool{},
	}
}

// Width returns the width of the hub's counting network (the modulus
// that maps an issued value to its exit wire, value mod width).
func (h *Hub) Width() int { return h.net.Width() }

// Close releases every blocked Barrier call with an error. The hub is
// unusable afterwards.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, b := range h.barriers {
		b.Close()
	}
}

// Quiesce verifies every barrier state's counting-network tickets now
// that the run is at rest: each must have issued exactly 0..arrivals-1
// (the gap-free quiescence contract). Call it after all barrier calls
// have returned, before Close.
func (h *Hub) Quiesce() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for state, b := range h.barriers {
		if err := b.Quiesce(); err != nil {
			obs.RecordFlight(obs.FlightOracleViolation, int64(len(h.barriers)), 0)
			return fmt.Errorf("syncsrv: barrier %q: %w", state, err)
		}
	}
	return nil
}

// Register records a worker id. A duplicate registration is an error:
// worker identities scope the issue log, so two processes sharing one
// id would corrupt the post-run cross-check.
func (h *Hub) Register(worker string) (int, error) {
	if worker == "" {
		return 0, fmt.Errorf("syncsrv: empty worker id")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("syncsrv: hub closed")
	}
	if h.workers[worker] {
		return 0, fmt.Errorf("syncsrv: worker %q already registered", worker)
	}
	h.workers[worker] = true
	return len(h.workers), nil
}

// Barrier blocks until n parties (including the caller) have arrived
// at the named state and returns the caller's 0-based generation. The
// first arrival at a state fixes its party count; later arrivals must
// pass the same n. Arrival tickets come from a counting-network
// counter dedicated to the state.
func (h *Hub) Barrier(state string, n int) (int64, error) {
	b, err := h.barrier(state, n)
	if err != nil {
		return 0, err
	}
	return b.Await()
}

// barrier returns the state's barrier, creating it on first arrival.
func (h *Hub) barrier(state string, n int) (*counter.Barrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("syncsrv: barrier %q with %d parties", state, n)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("syncsrv: hub closed")
	}
	b, ok := h.barriers[state]
	if !ok {
		b = counter.NewBarrier(n, counter.NewNetworkCounter(h.net, false))
		h.barriers[state] = b
	}
	if b.Parties() != n {
		return nil, fmt.Errorf("syncsrv: barrier %q opened for %d parties, arrival wants %d", state, b.Parties(), n)
	}
	return b, nil
}

// maxDraw caps the values one lease may ask for, so a bad request
// cannot make the hub allocate without bound.
const maxDraw = 1 << 16

// checkDrawSize rejects a lease size outside 1..maxDraw.
func checkDrawSize(n int) error {
	if n < 1 || n > maxDraw {
		return fmt.Errorf("syncsrv: draw of %d values (want 1..%d)", n, maxDraw)
	}
	return nil
}

// Draw leases n fresh values to the worker from the shared combining
// counter and records them in the issue log. The values are distinct
// across all workers and gap-free once the run quiesces — the
// guarantee the post-run checker verifies end to end.
func (h *Hub) Draw(worker string, n int) ([]int64, error) {
	return h.drawInto(worker, n, nil, nil, nil)
}

// drawInto is Draw leasing into buf's backing array when it has room.
// Non-nil hooks instrument the combining draw for package sched (see
// CombiningHandle.NextBlockHooked); production passes nil.
func (h *Hub) drawInto(worker string, n int, buf []int64, yield func(op string), block func(op string, ready func() bool)) ([]int64, error) {
	if err := checkDrawSize(n); err != nil {
		return nil, err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, fmt.Errorf("syncsrv: hub closed")
	}
	if !h.workers[worker] {
		h.mu.Unlock()
		return nil, fmt.Errorf("syncsrv: draw from unregistered worker %q", worker)
	}
	// A handle, not the counter-level NextBlock: a handle publishes its
	// request in a slot, so whichever draw holds the combine lock serves
	// every pending lease in one pass. Handles register their slot for
	// good, hence the free list rather than a sync.Pool that may drop
	// them: it never holds more handles than draws ever ran at once.
	var ch *counter.CombiningHandle
	if k := len(h.handles); k > 0 {
		ch = h.handles[k-1]
		h.handles = h.handles[:k-1]
	} else {
		ch = h.draw.Handle(0).(*counter.CombiningHandle)
	}
	h.mu.Unlock()

	// The network traversal runs outside h.mu: the whole point of the
	// combining counter is that concurrent draws contend on balancers,
	// not on one lock.
	vals := slices.Grow(buf[:0], n)[:n]
	ch.NextBlockHooked(vals, yield, block)
	obs.RecordFlight(obs.FlightBlockLease, vals[0], int64(n))

	h.mu.Lock()
	h.issued[worker] = append(h.issued[worker], vals...)
	h.handles = append(h.handles, ch)
	h.mu.Unlock()
	return vals, nil
}

// IssueLog returns a copy of the per-worker issue log.
func (h *Hub) IssueLog() map[string][]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string][]int64, len(h.issued))
	for w, vals := range h.issued {
		out[w] = append([]int64(nil), vals...)
	}
	return out
}
