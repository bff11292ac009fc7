package runner

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
)

// Async is a compiled form of a balancing network for real concurrent
// execution: many goroutines shepherd tokens through the network at
// once, contending on per-balancer state exactly as the distributed
// data structure of the paper intends.
//
// Two balancer implementations are provided. The atomic implementation
// realizes a p-balancer as a single fetch-and-add counter: the i-th
// arriving token leaves on port i mod p, which is precisely the
// balancer specification. The mutex implementation guards a plain
// counter with a sync.Mutex; it exists to measure how lock-based
// balancers behave under contention (the regime studied by the
// shared-memory counting network literature the paper cites).
type Async struct {
	width     int
	entry     []int32 // first gate per wire, -1 if none
	hot       []asyncHot
	gates     []asyncGate
	outPos    []int32 // wire -> position in the output order
	gateLayer []int32 // gate -> 1-based layer, for observability

	// watch is the observability hook, nil unless EnableObs was
	// called. The routing loop exists twice: obs-off Traverse keeps a
	// plain loop of its own, and one instrumented loop (traverse) with
	// nil-gated yield and obs branches serves everything else. Folding
	// the plain loop into the instrumented one cost 16% on
	// BenchmarkTraverse/L(4,4) (140 → 162 ns, median of 5, one pinned
	// CPU of a 2-vCPU Xeon host), so the disabled path stays the
	// uninstrumented loop plus one nil-check (pinned by the obs-off
	// differential and alloc tests and the BenchmarkObsOverhead lane).
	watch *obs.NetObs
}

// asyncHot is a gate's contended state, isolated from everything else:
// the atomic count (lock-free mode) and the mutex-guarded seq (lock
// mode) sit at the front of a 128-byte element, so in the hot slice no
// two gates' counters ever share a 64-byte cache line — regardless of
// the slice's base alignment — and a gate's read-only routing data
// (asyncGate) is never invalidated by counter traffic. The previous
// layout padded only *before* the counter inside a 144-byte struct,
// leaving each gate's counter on the same line as its routing slice
// headers. 128 rather than 64 also defeats adjacent-line prefetching
// between neighbouring counters.
//
//netvet:padalign 128
type asyncHot struct {
	count atomic.Int64
	mu    sync.Mutex
	seq   int64 // counter used under mutex traversal
	_     [128 - 24]byte
}

// asyncGate is the gate's immutable routing data, packed separately
// from the contended counters so concurrent readers share these lines
// cleanly.
type asyncGate struct {
	width int64
	mask  int64 // width-1 if width is a power of two, else -1
	shift uint8 // log2(width) when mask >= 0
	wires []int32
	next  []int32 // next gate per port, -1 if the token exits
}

// Compile prepares a network for concurrent traversal.
func Compile(net *network.Network) *Async {
	w := net.Width()
	a := &Async{
		width:     w,
		entry:     make([]int32, w),
		hot:       make([]asyncHot, net.Size()),
		gates:     make([]asyncGate, net.Size()),
		outPos:    make([]int32, w),
		gateLayer: make([]int32, net.Size()),
	}
	for gi := range net.Gates {
		a.gateLayer[gi] = int32(net.Gates[gi].Layer)
	}
	wireGates := net.WireGates()
	for wire := 0; wire < w; wire++ {
		a.entry[wire] = -1
		if len(wireGates[wire]) > 0 {
			a.entry[wire] = int32(wireGates[wire][0])
		}
	}
	for gi := range net.Gates {
		g := &net.Gates[gi]
		ag := &a.gates[gi]
		ag.width = int64(g.Width())
		ag.mask = -1
		if w := ag.width; w&(w-1) == 0 {
			ag.mask = w - 1
			for 1<<ag.shift < w {
				ag.shift++
			}
		}
		ag.wires = make([]int32, g.Width())
		ag.next = make([]int32, g.Width())
		for port, wire := range g.Wires {
			ag.wires[port] = int32(wire)
			ag.next[port] = -1
			lst := wireGates[wire]
			for k, id := range lst {
				if id == gi {
					if k+1 < len(lst) {
						ag.next[port] = int32(lst[k+1])
					}
					break
				}
			}
		}
	}
	for pos, wire := range net.OutputOrder {
		a.outPos[wire] = int32(pos)
	}
	return a
}

// Width returns the network width.
func (a *Async) Width() int { return a.width }

// EnableObs attaches observability state under the given group name
// and returns it; subsequent calls return the existing state. Call
// before the network sees concurrent traffic — the hook is installed
// with a plain store. When enabled, traversals record per-gate token
// counts and latency histograms; when never called, every hot path
// pays one nil-check only.
func (a *Async) EnableObs(name string) *obs.NetObs {
	if a.watch == nil {
		a.watch = obs.NewNetObs(name, a.gateLayer)
	}
	return a.watch
}

// Obs returns the observability state, nil when disabled.
func (a *Async) Obs() *obs.NetObs { return a.watch }

// Traverse pushes one token into the network on the given entry wire
// using atomic fetch-and-add balancers, and returns the output-order
// position on which the token exits. Safe for concurrent use.
//
//netvet:hotpath
func (a *Async) Traverse(entryWire int) int {
	if o := a.watch; o != nil {
		return a.traverse(entryWire, nil, o, false)
	}
	if entryWire < 0 || entryWire >= a.width {
		panic(fmt.Sprintf("runner: entry wire %d outside width %d", entryWire, a.width))
	}
	wire := int32(entryWire)
	gid := a.entry[wire]
	for gid >= 0 {
		g := &a.gates[gid]
		i := a.hot[gid].count.Add(1) - 1
		// Same pow2 fast path as the batch engine (batch.go): the AND
		// replaces a 64-bit DIV on the single hottest instruction of
		// the traversal loop. Counters are non-negative, so mask and
		// modulo agree; TestTraverseMaskVsModulo pins the equality.
		var port int64
		if m := g.mask; m >= 0 {
			port = i & m
		} else {
			port = i % g.width
		}
		wire = g.wires[port]
		gid = g.next[port]
	}
	return int(a.outPos[wire])
}

// TraverseHooked is Traverse instrumented for controlled scheduling:
// yield is called immediately before every atomic balancer access, so
// a scheduler that serializes its tasks (package sched) fully
// determines the interleaving of balancer operations. It shares the
// atomic balancer state with Traverse; do not mix hooked and unhooked
// traversals within one controlled run.
func (a *Async) TraverseHooked(entryWire int, yield func(op string)) int {
	return a.traverse(entryWire, yield, a.watch, false)
}

// TraverseMutex is Traverse with lock-based balancers. The two modes
// share no state; do not mix them on one Async instance within a run.
// It has no loop of its own: it runs the instrumented loop with the
// lock step out of line (lockedSeq), so the mutex code stays out of
// the loop that obs-on Traverse and TraverseHooked run. The lock path
// keeps the plain modulo port computation, which doubles as an oracle
// for the mask fast path.
//
//netvet:hotpath
func (a *Async) TraverseMutex(entryWire int) int {
	return a.traverse(entryWire, nil, a.watch, true)
}

// traverse is the instrumented routing loop behind obs-on Traverse,
// TraverseHooked and TraverseMutex. A non-nil yield runs before every
// balancer access; a non-nil o records per-gate token counts, plus a
// latency sample when yield is nil — hooked runs count only, because a
// clock read would break deterministic replay. locked selects the
// lock-based balancers.
//
//netvet:hotpath
func (a *Async) traverse(entryWire int, yield func(op string), o *obs.NetObs, locked bool) int {
	if entryWire < 0 || entryWire >= a.width {
		panic(fmt.Sprintf("runner: entry wire %d outside width %d", entryWire, a.width))
	}
	timed := o != nil && yield == nil
	var start int64
	if timed {
		start = obs.Now()
	}
	wire := int32(entryWire)
	gid := a.entry[wire]
	for gid >= 0 {
		g := &a.gates[gid]
		if yield != nil {
			//netvet:allow hotpath escape -- sched-hooked lane only; production callers pass a nil yield
			yield(fmt.Sprintf("gate %d", gid))
		}
		if o != nil {
			o.GateToken(gid)
		}
		var port int64
		if locked {
			port = a.lockedSeq(gid, o) % g.width
		} else {
			// Pow2 fast path, matching Traverse exactly — a controlled
			// schedule replays identically whichever loop computed the port.
			i := a.hot[gid].count.Add(1) - 1
			if m := g.mask; m >= 0 {
				port = i & m
			} else {
				port = i % g.width
			}
		}
		wire = g.wires[port]
		gid = g.next[port]
	}
	if timed {
		o.TraverseNs.ObserveSince(start)
	}
	return int(a.outPos[wire])
}

// lockedSeq takes gate gid's arrival index under its mutex. With o
// non-nil, contention is measured directly: a TryLock that fails means
// the token found the balancer held, counted per gate before falling
// back to the blocking Lock.
//
//go:noinline
//netvet:hotpath
func (a *Async) lockedSeq(gid int32, o *obs.NetObs) int64 {
	h := &a.hot[gid]
	if o == nil {
		h.mu.Lock()
	} else if !h.mu.TryLock() {
		o.GateContended(gid)
		h.mu.Lock()
	}
	i := h.seq
	h.seq++
	h.mu.Unlock()
	return i
}

// Reset clears all balancer state (both modes), returning the network
// to its initial quiescent configuration.
func (a *Async) Reset() {
	for i := range a.hot {
		a.hot[i].count.Store(0)
		a.hot[i].seq = 0
	}
}

// ExitCounts runs tokensPerWire tokens on every input wire from
// workers concurrent goroutines using atomic balancers, waits for
// quiescence, and returns the per-position exit counts in output order.
// It is the concurrent analogue of ApplyTokens on a uniform input and
// is used by tests to check the step property under real interleaving.
func (a *Async) ExitCounts(tokensPerWire int, workers int) []int64 {
	if workers < 1 {
		workers = 1
	}
	total := tokensPerWire * a.width
	var next atomic.Int64
	counts := make([]atomic.Int64, a.width)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Production-only worker pool; controlled runs drive tokens as
		// harness tasks through TraverseHooked instead.
		//netvet:allow spawn
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(total) {
					return
				}
				pos := a.Traverse(int(k) % a.width)
				counts[pos].Add(1)
			}
		}()
	}
	wg.Wait()
	out := make([]int64, a.width)
	for i := range counts {
		out[i] = counts[i].Load()
	}
	return out
}
