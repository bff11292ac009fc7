package counter

import (
	"fmt"
	"sync"
)

// Barrier is a reusable n-party synchronization barrier driven by a
// Fetch&Increment counter — the classic barrier application counting
// networks were proposed for: every arrival takes a ticket, so with a
// NetworkCounter underneath the arrival contention spreads over the
// network's balancers instead of one hot spot. It is the barrier behind
// countnet.Barrier and behind every syncsrv.Hub barrier state.
//
// Generation membership is decided by arrival order under the lock,
// not by the ticket value. Counting networks are not linearizable: a
// token entering the network later can exit with a smaller value, so
// under reuse a party re-arriving for generation g+1 can draw a ticket
// belonging to generation g. Releasing on "ticket == boundary-1" then
// deadlocks, because the generation-closing ticket can rest with a
// party that never arrives again; the schedule-exploration test
// TestTicketGenerationRefuted replays a minimal such interleaving
// against this very construction. The tickets still spread contention,
// and at rest they must be exactly 0..arrivals-1 (Quiesce).
type Barrier struct {
	n   int64
	ctr Counter

	mu        sync.Mutex
	cond      *sync.Cond
	arrivals  int64 // total arrivals that have taken a ticket
	done      int64 // arrivals of the highest fully-released generation
	maxTicket int64 // largest ticket drawn so far
	closed    bool
}

// NewBarrier builds a barrier for n parties over the given counter
// (which must start at 0 and be used by nothing else).
func NewBarrier(n int, ctr Counter) *Barrier {
	if n < 1 {
		panic("counter: barrier size < 1")
	}
	b := &Barrier{n: int64(n), ctr: ctr, maxTicket: -1}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Parties returns the barrier's party count n.
func (b *Barrier) Parties() int { return int(b.n) }

// Await blocks until n parties (including the caller) have arrived in
// the caller's generation, and returns the caller's generation number
// (0-based), or an error if Close released the caller first. Reusable
// across generations. Arrival tickets come from the barrier's shared
// counter; parties calling Await in a loop should hold a Handle
// instead, so ticket draws skip the counter's shared entry dispatcher.
func (b *Barrier) Await() (int64, error) {
	return b.arrive(b.ctr.Next(), nil, nil)
}

// AwaitHooked is Await with schedule instrumentation, for package
// sched: the ticket traverses the barrier's NetworkCounter entering on
// wire with yield before every atomic step, and a waiting arrival
// parks in block until its generation is released (or the barrier
// closed) before it reaches the real condition wait. It runs Await's
// own arrive/wait body. The barrier's counter must be a
// *NetworkCounter.
func (b *Barrier) AwaitHooked(wire int, yield func(op string), block func(op string, ready func() bool)) (int64, error) {
	return b.arrive(b.ctr.(*NetworkCounter).NextOnHooked(wire, yield), yield, block)
}

// Handle returns a single-goroutine view of the barrier whose arrival
// tickets are drawn through a private counter handle (when the
// underlying counter supports them); id disperses the handles' entry
// wires. Handles must not be shared between goroutines.
func (b *Barrier) Handle(id int) *BarrierHandle {
	ctr := b.ctr
	if h, ok := ctr.(Handled); ok {
		ctr = h.Handle(id)
	}
	return &BarrierHandle{b: b, ctr: ctr}
}

// BarrierHandle is a single-goroutine view of a Barrier.
type BarrierHandle struct {
	b   *Barrier
	ctr Counter
}

// Await is Barrier.Await drawing the arrival ticket from the handle's
// private counter view.
func (h *BarrierHandle) Await() (int64, error) {
	return h.b.arrive(h.ctr.Next(), nil, nil)
}

// arrive is the one arrive/wait body: it records the caller's ticket t
// as one arrival and, unless the caller completed its generation,
// waits for that generation's release. Non-nil hooks instrument it for
// package sched: yield runs before the lock, and block parks the
// caller, lock released, until the real wait would return at once.
func (b *Barrier) arrive(t int64, yield func(op string), block func(op string, ready func() bool)) (int64, error) {
	step(yield, "barrier gate")
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maxTicket = max(b.maxTicket, t)
	b.arrivals++
	gen := (b.arrivals - 1) / b.n
	if b.arrivals%b.n == 0 {
		// Last arrival of this generation: release it.
		b.done = max(b.done, b.arrivals)
		b.cond.Broadcast()
		return gen, nil
	}
	boundary := (gen + 1) * b.n
	if block != nil {
		b.mu.Unlock()
		block("barrier wait", func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return b.done >= boundary || b.closed
		})
		b.mu.Lock()
	}
	for b.done < boundary && !b.closed {
		b.cond.Wait()
	}
	if b.done < boundary {
		return 0, fmt.Errorf("counter: barrier closed with %d of %d arrivals", b.arrivals%b.n, b.n)
	}
	return gen, nil
}

// Close releases every waiting arrival, and fails every later one that
// must wait, with an error. Arrivals that complete a generation still
// succeed.
func (b *Barrier) Close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Quiesce checks the barrier's tickets at rest: with every arrival
// returned, the counter must have issued exactly 0..arrivals-1, the
// gap-free quiescence contract of a counting-network counter. Tickets
// are distinct, so the largest one pins the whole set.
func (b *Barrier) Quiesce() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.maxTicket != b.arrivals-1 {
		return fmt.Errorf("tickets not gap-free at quiescence: %d arrivals but max ticket %d", b.arrivals, b.maxTicket)
	}
	return nil
}
