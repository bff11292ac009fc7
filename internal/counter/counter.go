// Package counter implements concurrent Fetch&Increment counters, the
// application domain of counting networks: a width-w counting network
// with a local counter on each output wire yields a low-contention
// shared counter. A token traverses the network, exits on output
// position i having previously seen k tokens exit there, and is
// assigned the value k*w + i; in any quiescent state the issued values
// are exactly 0..N-1.
//
// The package also provides centralized baselines (a single atomic
// fetch-and-add and a mutex-protected counter) used by the E9
// experiment to reproduce the shape of the shared-memory measurements
// of Felten, LaMarca & Ladner, which the paper cites as evidence that
// intermediate balancer widths perform best.
package counter

// The concurrent paths in this package are explored by the
// internal/sched harness; executions must replay deterministically
// from a recorded schedule (see docs/TESTING.md).
//
//netvet:sched-instrumented

import (
	"fmt"
	"sync"
	"sync/atomic"

	"countnet/internal/network"
	"countnet/internal/obs"
	"countnet/internal/runner"
)

// Counter issues distinct non-negative values. Implementations are safe
// for concurrent use; NetworkCounter additionally guarantees that after
// the network quiesces the issued values are gap-free.
type Counter interface {
	// Next returns the next value.
	Next() int64
}

// Handled is implemented by counters that benefit from per-goroutine
// handles (to avoid a shared entry-dispatch hotspot). Generic code can
// fall back to the counter itself, which must also implement Counter.
type Handled interface {
	Counter
	// Handle returns a Counter view for a single goroutine. Handles
	// must not be shared between goroutines.
	Handle(id int) Counter
}

// BlockCounter is implemented by counters that can issue a block of
// values in one call, cheaper than len(dst) separate Nexts. The values
// are distinct and all consumed by the caller on return, so block
// requests preserve the gap-free-at-quiescence guarantee; they are not
// necessarily consecutive integers (a network counter hands out value
// progressions from several exit wires).
type BlockCounter interface {
	Counter
	// NextBlock fills dst with len(dst) fresh values.
	NextBlock(dst []int64)
}

// padded spaces local counters a full cache line apart: the 64 bytes
// of leading padding keep consecutive slice elements' counters on
// distinct lines regardless of the slice's base alignment.
//
//netvet:padalign 72
type padded struct {
	_ [64]byte
	v atomic.Int64
}

// NetworkCounter is a Fetch&Increment counter built on a counting
// network.
type NetworkCounter struct {
	async   *runner.Async
	width   int
	width64 int64 // int64(width), cached off the per-value paths
	useMu   bool
	entry   atomic.Int64
	locals  []padded

	// watch is the observability hook, nil unless EnableObs was
	// called; the value body pays two nil-checks when disabled.
	watch *obs.CounterObs
}

// NewNetworkCounter builds a counter over the given counting network.
// If mutexBalancers is true, tokens traverse lock-based balancers
// instead of fetch-and-add balancers.
func NewNetworkCounter(net *network.Network, mutexBalancers bool) *NetworkCounter {
	return &NetworkCounter{
		async:   runner.Compile(net),
		width:   net.Width(),
		width64: int64(net.Width()),
		useMu:   mutexBalancers,
		locals:  make([]padded, net.Width()),
	}
}

// Width returns the width of the underlying network.
func (c *NetworkCounter) Width() int { return c.width }

// EnableObs attaches observability under the given group name and
// registers it with r (obs.Default when nil). Idempotent; call before
// the counter sees concurrent traffic. When enabled, every issued
// value records an ops count and a Next-latency sample (hooked values
// count only), and the underlying network records per-gate token
// counts.
func (c *NetworkCounter) EnableObs(name string, r *obs.Registry) *obs.CounterObs {
	if c.watch == nil {
		c.watch = obs.NewCounterObs(name, c.async.EnableObs(name))
	}
	if r == nil {
		r = obs.Default
	}
	r.Register(name, c.watch)
	return c.watch
}

// Next issues a value, dispatching the entry wire from a shared
// round-robin counter. This is the slow path: every call pays a
// fetch-and-add and a modulo on one shared dispatch word before the
// token even enters the network. Handle is the fast path — it cycles
// entry wires privately, touching no shared state outside the network
// itself (pinned by TestHandleBypassesSharedDispatch).
//
//netvet:hotpath
func (c *NetworkCounter) Next() int64 {
	wire := int((c.entry.Add(1) - 1) % c.width64)
	return c.nextOn(wire, nil)
}

// NextBlock fills dst with len(dst) values via the shared dispatcher.
//
//netvet:hotpath
func (c *NetworkCounter) NextBlock(dst []int64) {
	for i := range dst {
		dst[i] = c.Next()
	}
}

// nextOn is the one value body: traverse from wire, then claim the
// exit wire's next local value. A non-nil yield runs before every
// atomic step (through TraverseHooked, which always uses the atomic
// balancers); with observability on, every value counts Ops, and
// unhooked values also record a Next-latency sample — hooked runs read
// no clock, so controlled runs replay deterministically.
//
//netvet:hotpath
func (c *NetworkCounter) nextOn(wire int, yield func(op string)) int64 {
	o := c.watch
	var start int64
	if o != nil && yield == nil {
		start = obs.Now()
	}
	var pos int
	switch {
	case yield != nil:
		pos = c.async.TraverseHooked(wire, yield)
		//netvet:allow hotpath escape -- sched-hooked lane only; production callers pass a nil yield
		yield(fmt.Sprintf("local %d", pos))
	case c.useMu:
		pos = c.async.TraverseMutex(wire)
	default:
		pos = c.async.Traverse(wire)
	}
	k := c.locals[pos].v.Add(1) - 1
	if o != nil {
		o.Ops.Inc()
		if yield == nil {
			o.NextNs.ObserveSince(start)
		}
	}
	return k*c.width64 + int64(pos)
}

// NextOnHooked issues a value entering on the given wire with schedule
// instrumentation: yield runs immediately before every atomic step (each
// balancer access and the local-counter fetch). Hooked traversal always
// uses the atomic balancers. For package sched; do not mix with
// unhooked calls within one controlled run.
func (c *NetworkCounter) NextOnHooked(wire int, yield func(op string)) int64 {
	return c.nextOn(wire, yield)
}

// NextHooked is Next with schedule instrumentation (see NextOnHooked);
// the shared entry-dispatch fetch-and-add is itself a yield point.
func (c *NetworkCounter) NextHooked(yield func(op string)) int64 {
	yield("entry dispatch")
	wire := int((c.entry.Add(1) - 1) % c.width64)
	return c.nextOn(wire, yield)
}

// Handle returns a goroutine-local view whose entry wires cycle
// privately, starting at an offset derived from id. The counting
// property holds for any distribution of tokens over input wires, so
// private cycling is safe.
func (c *NetworkCounter) Handle(id int) Counter {
	// Reduce before negating: -id overflows for math.MinInt.
	pos := id % c.width
	if pos < 0 {
		pos = -pos
	}
	return &handle{c: c, pos: pos}
}

type handle struct {
	c   *NetworkCounter
	pos int
}

//netvet:hotpath
func (h *handle) Next() int64 {
	wire := h.pos
	h.pos++
	if h.pos == h.c.width {
		h.pos = 0
	}
	return h.c.nextOn(wire, nil)
}

// NextBlock fills dst with len(dst) values, one token each.
//
//netvet:hotpath
func (h *handle) NextBlock(dst []int64) { h.nextBlock(dst, nil) }

// nextBlock is NextBlock's body; a non-nil yield instruments every
// token (see nextOn). The private wire cursor is goroutine-local.
//
//netvet:hotpath
func (h *handle) nextBlock(dst []int64, yield func(op string)) {
	for i := range dst {
		wire := h.pos
		h.pos++
		if h.pos == h.c.width {
			h.pos = 0
		}
		dst[i] = h.c.nextOn(wire, yield)
	}
}

// step runs a non-nil schedule hook before the shared access labelled
// op; production callers pass a nil yield and pay one nil-check.
func step(yield func(op string), op string) {
	if yield != nil {
		yield(op)
	}
}

// lockFree probes mu with TryLock. Only for controlled-run readiness
// predicates: sched evaluates them while every task is parked, so the
// probe cannot race or stall a real acquirer.
func lockFree(mu *sync.Mutex) bool {
	if mu.TryLock() {
		mu.Unlock()
		return true
	}
	return false
}

// issued returns the number of values this counter has handed out,
// exact once no Next/NextBlock is in flight. The adaptive front-end
// reads it as the fence value when sealing an epoch: after draining,
// issued() is the count the incoming engine must continue from.
func (c *NetworkCounter) issued() int64 {
	var n int64
	for i := range c.locals {
		n += c.locals[i].v.Load()
	}
	return n
}

// AtomicCounter is the centralized baseline: one fetch-and-add word.
type AtomicCounter struct {
	_ [64]byte
	v atomic.Int64
}

// NewAtomicCounter returns a zeroed atomic counter.
func NewAtomicCounter() *AtomicCounter { return &AtomicCounter{} }

// Next returns the next value.
//
//netvet:hotpath
func (c *AtomicCounter) Next() int64 { return c.v.Add(1) - 1 }

// NextBlock claims len(dst) consecutive values with one fetch-and-add.
//
//netvet:hotpath
func (c *AtomicCounter) NextBlock(dst []int64) {
	k := int64(len(dst))
	base := c.v.Add(k) - k
	for i := range dst {
		dst[i] = base + int64(i)
	}
}

// issued returns the number of values handed out (see
// NetworkCounter.issued); for the atomic baseline it is the word
// itself.
func (c *AtomicCounter) issued() int64 { return c.v.Load() }

// MutexCounter is the lock-based centralized baseline.
type MutexCounter struct {
	mu sync.Mutex
	v  int64
}

// NewMutexCounter returns a zeroed mutex counter.
func NewMutexCounter() *MutexCounter { return &MutexCounter{} }

// Next returns the next value.
//
//netvet:hotpath
func (c *MutexCounter) Next() int64 {
	c.mu.Lock()
	v := c.v
	c.v++
	c.mu.Unlock()
	return v
}

// NextBlock claims len(dst) consecutive values under one lock hold.
//
//netvet:hotpath
func (c *MutexCounter) NextBlock(dst []int64) {
	c.mu.Lock()
	base := c.v
	c.v += int64(len(dst))
	c.mu.Unlock()
	for i := range dst {
		dst[i] = base + int64(i)
	}
}
