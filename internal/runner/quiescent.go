package runner

import (
	"fmt"
	"strings"

	"countnet/internal/network"
)

// ApplyTokens runs the network under quiescent balancer semantics.
// in[i] is the number of tokens entering on wire i. The result is the
// network's output sequence of token counts: element k is the number of
// tokens leaving on wire net.OutputOrder[k].
//
// The transfer function at a width-p balancer with input counts summing
// to t is exact for any quiescent execution: output j carries
// ceil((t-j)/p) tokens, because the i-th token to enter leaves on wire
// i mod p regardless of arrival interleaving. It panics on a width
// mismatch or a negative count.
func ApplyTokens(net *network.Network, in []int64) []int64 {
	for wire, c := range in {
		if c < 0 {
			panic(fmt.Sprintf("runner: negative token count on wire %d", wire))
		}
	}
	// A fresh Stepper's output buffer belongs to this call alone.
	return NewStepper(net).Step(in)
}

// Stepper runs the quiescent transfer function of ApplyTokens over
// reused buffers, so hot verification loops step without allocating;
// ApplyTokens is a one-shot Stepper. Step does not reject negative
// counts. Not safe for concurrent use.
type Stepper struct {
	net    *network.Network
	counts []int64
	out    []int64
}

// NewStepper prepares a Stepper for the network.
func NewStepper(net *network.Network) *Stepper {
	return &Stepper{
		net:    net,
		counts: make([]int64, net.Width()),
		out:    make([]int64, net.Width()),
	}
}

// Step computes the quiescent output distribution for the given input
// token counts. The returned slice is reused by the next call.
func (s *Stepper) Step(in []int64) []int64 {
	if len(in) != s.net.Width() {
		panic(fmt.Sprintf("runner: %d token counts for width-%d network", len(in), s.net.Width()))
	}
	copy(s.counts, in)
	counts := s.counts
	for gi := range s.net.Gates {
		g := &s.net.Gates[gi]
		p := int64(g.Width())
		var t int64
		for _, wire := range g.Wires {
			t += counts[wire]
		}
		q, r := t/p, t%p
		for j, wire := range g.Wires {
			counts[wire] = q
			if int64(j) < r {
				counts[wire]++
			}
		}
	}
	for k, wire := range s.net.OutputOrder {
		s.out[k] = counts[wire]
	}
	return s.out
}

// TokenRun is the outcome of RunTokens.
type TokenRun struct {
	// Counts holds per-position exit counts in output order.
	Counts []int64
	// Exits holds each token's exit position, indexed by token id.
	Exits []int
	// ExitRanks holds, per token, how many tokens exited on the same
	// wire before it. Combined with Exits this yields the
	// Fetch&Increment value a counting-network counter would assign:
	// value = ExitRanks[i]*width + Exits[i].
	ExitRanks []int
	// Steps is the total number of gate traversals performed.
	Steps int
}

// PathStep records one gate traversal of one token.
type PathStep struct {
	Gate    int // gate ID
	Rank    int // arrival rank at that gate (0-based)
	InWire  int // wire the token arrived on
	OutWire int // wire the token left on
}

// RunTokens is the abstract token model: one token per entry in
// entries (token id = slice index) advances through the network one
// atomic step at a time, and pick chooses which in-flight token steps
// next. ready holds the ids of the tokens still in flight, in id
// order; pick returns a position within it. A step is one gate
// traversal or, after a token's last gate, its exit — the
// local-counter access, itself schedulable, which fixes the token's
// exit rank. pick == nil is the serial schedule: each token runs to
// completion in injection order.
//
// Every balancer access is atomic, so the picks range over all
// asynchronous executions at balancer granularity. Individual token
// paths and exit ranks depend on the schedule; the exit counts do not
// and always equal ApplyTokens. paths[i] lists token i's gate
// traversals in order. RunTokens panics on out-of-range entry wires.
func RunTokens(net *network.Network, entries []int, pick func(ready []int) int) (run TokenRun, paths [][]PathStep) {
	w := net.Width()
	// Precomputed routing: first gate per wire, successor gate per
	// (gate, port), and each wire's output-order position, so a step is
	// O(1) instead of a search of the wire's gate list.
	entry := make([]int, w)
	for wire := range entry {
		entry[wire] = -1
	}
	succ := make([][]int, net.Size()) // next gate per port, -1 if the token exits
	for gi := range net.Gates {
		s := make([]int, net.Gates[gi].Width())
		for j := range s {
			s[j] = -1
		}
		succ[gi] = s
	}
	for wire, lst := range net.WireGates() {
		prev := -1 // previous gate on this wire, with prevPort its port
		prevPort := 0
		for _, gid := range lst {
			port := portOf(&net.Gates[gid], wire)
			if prev < 0 {
				entry[wire] = gid
			} else {
				succ[prev][prevPort] = gid
			}
			prev, prevPort = gid, port
		}
	}
	outPos := make([]int, w)
	for pos, wire := range net.OutputOrder {
		outPos[wire] = pos
	}

	n := len(entries)
	wires := make([]int, n) // each token's current wire
	next := make([]int, n)  // each token's next gate, -1 when only its exit remains
	ready := make([]int, n)
	for i, e := range entries {
		if e < 0 || e >= w {
			panic(fmt.Sprintf("runner: token %d enters on wire %d outside width %d", i, e, w))
		}
		wires[i], next[i], ready[i] = e, entry[e], i
	}
	run = TokenRun{Counts: make([]int64, w), Exits: make([]int, n), ExitRanks: make([]int, n)}
	paths = make([][]PathStep, n)
	seen := make([]int, net.Size()) // tokens seen per gate
	exited := make([]int, w)        // tokens exited per wire
	for len(ready) > 0 {
		k := 0
		if pick != nil {
			k = pick(ready)
		}
		id := ready[k]
		gid := next[id]
		if gid < 0 {
			// Popping the front in place keeps the serial schedule linear.
			if k == 0 {
				ready = ready[1:]
			} else {
				ready = append(ready[:k], ready[k+1:]...)
			}
			wire := wires[id]
			run.ExitRanks[id] = exited[wire]
			exited[wire]++
			run.Exits[id] = outPos[wire]
			run.Counts[outPos[wire]]++
			continue
		}
		g := &net.Gates[gid]
		rank := seen[gid]
		seen[gid]++
		port := rank % g.Width()
		paths[id] = append(paths[id], PathStep{Gate: gid, Rank: rank, InWire: wires[id], OutWire: g.Wires[port]})
		wires[id], next[id] = g.Wires[port], succ[gid][port]
		run.Steps++
	}
	return run, paths
}

// Script is a RunTokens schedule that advances tokens in an exact
// prescribed order: order[k] names the token that performs the k-th
// atomic step. Once the order is exhausted the remaining tokens drain
// serially. The pick panics if the named token has already finished —
// that is a bug in the script. Scripts are how directed executions
// (e.g. linearizability counterexamples) are constructed.
func Script(order []int) func(ready []int) int {
	pos := 0
	return func(ready []int) int {
		if pos >= len(order) {
			return 0
		}
		want := order[pos]
		pos++
		for i, id := range ready {
			if id == want {
				return i
			}
		}
		panic(fmt.Sprintf("runner: script step %d names finished token %d", pos-1, want))
	}
}

// FormatPaths renders the result of RunTokens as one line per token:
// the wires visited, the gates traversed with arrival ranks, and the
// exit position with the Fetch&Increment value the token would be
// assigned. It is the textual analogue of the token-flow arrows in the
// paper's Figure 3.
func FormatPaths(net *network.Network, entries []int, paths [][]PathStep, res TokenRun) string {
	var sb strings.Builder
	w := net.Width()
	for id, entry := range entries {
		fmt.Fprintf(&sb, "token %d: wire %d", id, entry)
		for _, st := range paths[id] {
			label := net.Gates[st.Gate].Label
			if label == "" {
				label = fmt.Sprintf("g%d", st.Gate)
			}
			fmt.Fprintf(&sb, " -[%s #%d]-> wire %d", label, st.Rank, st.OutWire)
		}
		value := res.ExitRanks[id]*w + res.Exits[id]
		fmt.Fprintf(&sb, "  => exit position %d, value %d\n", res.Exits[id], value)
	}
	fmt.Fprintf(&sb, "exit counts (output order): %v\n", res.Counts)
	return sb.String()
}

// portOf returns the port index of wire within the gate.
func portOf(g *network.Gate, wire int) int {
	for j, gw := range g.Wires {
		if gw == wire {
			return j
		}
	}
	panic("runner: gate not on wire")
}
