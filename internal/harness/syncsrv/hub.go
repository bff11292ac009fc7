// Package syncsrv is the coordination service of the multi-process
// traffic harness (internal/harness): a run-scoped HTTP server that
// worker processes use to phase-synchronize, publish/watch events,
// share key/value state, and lease blocks of Fetch&Increment values
// from one shared counting-network counter.
//
// The barrier arrival path dogfoods the paper's own application: every
// Barrier(state, n) arrival draws a ticket from a counting-network
// counter, so the harness's phase synchronization is itself loading
// the data structure under test (release bookkeeping is arrival-
// ordered — see stateBarrier for why ticket-ordered release would
// deadlock — and Quiesce checks the tickets' gap-free contract).
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
	"sort"
	"sync"
	"time"

	"countnet/internal/counter"
	"countnet/internal/network"
	"countnet/internal/obs"
)

// Hub is the in-memory coordination state behind one harness run. All
// methods are safe for concurrent use; blocking methods (Barrier,
// Subscribe) return with an error after Close.
type Hub struct {
	net  *network.Network
	draw *counter.CombiningCounter // shared value source for leases

	mu       sync.Mutex
	closed   bool
	handles  []*counter.CombiningHandle // free list: one handle per in-flight draw at peak
	barriers map[string]*stateBarrier
	topics   map[string]*topic
	kv       map[string]string
	issued   map[string][]int64 // worker -> values leased to it, in issue order
	workers  map[string]bool
}

// NewHub builds a hub whose barriers and draw counter run on the given
// counting network.
func NewHub(net *network.Network) *Hub {
	return &Hub{
		net:      net,
		draw:     counter.NewCombiningCounter(net),
		barriers: map[string]*stateBarrier{},
		topics:   map[string]*topic{},
		kv:       map[string]string{},
		issued:   map[string][]int64{},
		workers:  map[string]bool{},
	}
}

// Width returns the width of the hub's counting network (the modulus
// that maps an issued value to its exit wire, value mod width).
func (h *Hub) Width() int { return h.net.Width() }

// Close releases every blocked Barrier and Subscribe call with an
// error. The hub is unusable afterwards.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, b := range h.barriers {
		b.close()
	}
	for _, t := range h.topics {
		t.cond.Broadcast()
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
		if err := b.quiesce(); err != nil {
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

// Workers returns the registered worker ids, sorted.
func (h *Hub) Workers() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.workers))
	for w := range h.workers {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
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
func (h *Hub) barrier(state string, n int) (*stateBarrier, error) {
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
		b = newStateBarrier(h.net, n)
		h.barriers[state] = b
	}
	if b.n != int64(n) {
		return nil, fmt.Errorf("syncsrv: barrier %q opened for %d parties, arrival wants %d", state, b.n, n)
	}
	return b, nil
}

// Publish appends value to the named topic and returns its 0-based
// sequence number, waking every Subscribe long-poll on the topic.
func (h *Hub) Publish(topicName, value string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topic(topicName)
	t.entries = append(t.entries, value)
	t.cond.Broadcast()
	return len(t.entries) - 1
}

// Subscribe returns the topic entries with sequence >= after, waiting
// up to wait for at least one to exist. It returns the entries (nil
// after a timeout) and the next sequence number to poll from, so a
// late joiner passing after=0 always sees the full history.
func (h *Hub) Subscribe(topicName string, after int, wait time.Duration) ([]string, int) {
	deadline := time.Now().Add(wait)
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topic(topicName)
	for len(t.entries) <= after && !h.closed {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		// Cond has no timed wait; a one-shot timer broadcast bounds it.
		tm := time.AfterFunc(remain, t.cond.Broadcast)
		t.cond.Wait()
		tm.Stop()
	}
	if after > len(t.entries) {
		after = len(t.entries)
	}
	entries := append([]string(nil), t.entries[after:]...)
	return entries, len(t.entries)
}

// topic returns the named topic, creating it under h.mu.
func (h *Hub) topic(name string) *topic {
	t, ok := h.topics[name]
	if !ok {
		t = &topic{cond: sync.NewCond(&h.mu)}
		h.topics[name] = t
	}
	return t
}

type topic struct {
	entries []string
	cond    *sync.Cond
}

// Put stores a run-scoped key/value pair.
func (h *Hub) Put(key, value string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.kv[key] = value
}

// Get reads a run-scoped key.
func (h *Hub) Get(key string) (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.kv[key]
	return v, ok
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
	return h.drawInto(worker, n, nil)
}

// drawInto is Draw leasing into buf's backing array when it has room.
func (h *Hub) drawInto(worker string, n int, buf []int64) ([]int64, error) {
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
	ch.NextBlock(vals)
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
