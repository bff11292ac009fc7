// This file binds the controlled scheduler to the repository's real
// concurrent substrates, with invariant checks evaluated at
// quiescence. Each System builds fresh substrate state per schedule,
// so explorers and the shrinker can re-run interleavings at will.

package sched

import (
	"fmt"
	"slices"

	"countnet/internal/counter"
	"countnet/internal/network"
	"countnet/internal/pool"
	"countnet/internal/runner"
	"countnet/internal/seq"
)

// TokenSystem drives one token per listed entry wire through a fresh
// runner.Async compile of net (atomic fetch-and-add balancers, the
// real concurrent traversal code). At quiescence it checks the two
// properties the paper guarantees for counting networks:
//
//   - the step property of the per-position exit counts, and
//   - quiescent consistency: the counts equal the schedule-independent
//     transfer function runner.ApplyTokens — every interleaving must
//     land on the same quiescent state.
//
// Failures embed the token paths of the offending schedule rendered
// via runner.FormatPaths, so a violation reads like the paper's Figure 3.
func TokenSystem(net *network.Network, entries []int) System {
	return BatchTokenSystem(net, entries, nil)
}

// FormatTokenSchedule renders a TokenSystem schedule as per-token gate
// paths: the trace's non-start slices are exactly the atomic steps of
// the abstract token model, so replaying them through runner.RunTokens
// as a runner.Script reconstructs every token's route for
// runner.FormatPaths.
func FormatTokenSchedule(net *network.Network, entries []int, tr *Trace) string {
	order := make([]int, 0, len(tr.Ops))
	for _, op := range tr.Ops {
		if op.Label == OpStart {
			continue
		}
		order = append(order, op.Task)
	}
	res, paths := runner.RunTokens(net, entries, runner.Script(order))
	return runner.FormatPaths(net, entries, paths, res)
}

// BatchTokenSystem drives a mix of single tokens (one task per entry
// listed in entries, via Async.TraverseHooked) and count batches (one
// task per element of batches, via Async.TraverseBatchHooked) through
// one fresh compile of net. Every atomic balancer access — a batch's
// per-gate reservation or a token's per-gate step — is a scheduling
// point, so exploration covers arbitrary interleavings of batch RMWs
// with single-token RMWs. At quiescence the combined exit counts must
// satisfy the step property and equal the transfer function of the
// combined input — the invariant that makes TraverseBatch safe to mix
// with per-token traffic (counter.CombiningCounter relies on it).
func BatchTokenSystem(net *network.Network, entries []int, batches [][]int64) System {
	w := net.Width()
	in := make([]int64, w)
	for _, e := range entries {
		in[e]++
	}
	for _, b := range batches {
		for i, v := range b {
			in[i] += v
		}
	}
	want := runner.ApplyTokens(net, in)
	return func() ([]TaskFunc, func(tr *Trace) error) {
		a := runner.Compile(net)
		counts := make([]int64, w)
		tasks := make([]TaskFunc, 0, len(entries)+len(batches))
		for _, e := range entries {
			tasks = append(tasks, func(y *Yield) {
				pos := a.TraverseHooked(e, y.Step)
				y.Step("exit")
				counts[pos]++
			})
		}
		for _, b := range batches {
			tasks = append(tasks, func(y *Yield) {
				out := a.TraverseBatchHooked(b, y.Step)
				y.Step("exit")
				for pos, v := range out {
					counts[pos] += v
				}
			})
		}
		check := func(tr *Trace) error {
			var err error
			switch {
			case !seq.IsStep(counts):
				err = fmt.Errorf("sched: quiescent exit counts %v violate the step property", counts)
			case !slices.Equal(counts, want):
				err = fmt.Errorf("sched: quiescent exit counts %v differ from transfer function %v (quiescent consistency)", counts, want)
			}
			if err != nil && len(batches) == 0 {
				err = fmt.Errorf("%w\n%s", err, FormatTokenSchedule(net, entries, tr))
			}
			return err
		}
		return tasks, check
	}
}

// CounterSystem runs goroutines tasks each issuing opsPer values from
// one fresh NetworkCounter over net (entry wires cycled per task, as
// counter handles do). At quiescence the issued values must be exactly
// 0..N-1 — the Fetch&Increment contract: distinct, gap-free, none
// minted twice. Any atomicity violation in the balancer or
// local-counter path surfaces as a duplicate or gap.
func CounterSystem(net *network.Network, goroutines, opsPer int) System {
	w := net.Width()
	return func() ([]TaskFunc, func(tr *Trace) error) {
		c := counter.NewNetworkCounter(net, false)
		values := make([]int64, 0, goroutines*opsPer)
		tasks := make([]TaskFunc, goroutines)
		for g := 0; g < goroutines; g++ {
			g := g
			tasks[g] = func(y *Yield) {
				wire := g % w
				for k := 0; k < opsPer; k++ {
					v := c.NextOnHooked(wire, y.Step)
					values = append(values, v)
					wire++
					if wire == w {
						wire = 0
					}
				}
			}
		}
		return tasks, func(tr *Trace) error { return gapFree("counter values", values, tr) }
	}
}

// AdaptiveSystem runs goroutines tasks each issuing opsPer values
// through per-task handles of one counter.AdaptiveCounter (built fresh
// per schedule by build, so tests control the initial engine, policy,
// and failure-injection hooks), while one switcher task walks the
// engine plan via SwitchToHooked. Draws run Next's own path, prefetch
// included; every shared step of the epoch protocol and the engines is
// a scheduling point. At quiescence the consumed values plus every
// handle's Unserved buffer must be exactly 0..N-1: a draw minted
// against a stale epoch offset, a fence read before a straggler
// retired, or a switch that skipped the drain surfaces as a duplicate
// or a gap.
func AdaptiveSystem(build func() *counter.AdaptiveCounter, goroutines, opsPer int, plan []counter.EngineKind) System {
	return func() ([]TaskFunc, func(tr *Trace) error) {
		c := build()
		var values []int64
		tasks := make([]TaskFunc, 0, goroutines+1)
		for g := 0; g < goroutines; g++ {
			h := c.Handle(g).(*counter.AdaptiveHandle)
			tasks = append(tasks, func(y *Yield) {
				for k := 0; k < opsPer; k++ {
					values = append(values, h.NextHooked(y.Step, y.Block))
				}
				// Done drawing: the leftover buffer counts as issued.
				values = append(values, h.Unserved()...)
			})
		}
		if len(plan) > 0 {
			tasks = append(tasks, func(y *Yield) {
				for _, kind := range plan {
					c.SwitchToHooked(kind, y.Step, y.Block)
				}
			})
		}
		return tasks, func(tr *Trace) error {
			return gapFree("adaptive counter values (consumed and unserved) across engine switches", values, tr)
		}
	}
}

// CombiningSystem runs goroutines tasks, each drawing one block per
// entry of blocks via CombiningHandle.NextBlockHooked on its own handle
// of one counter.CombiningCounter built fresh per schedule by build.
// Exploration covers combiners serving other handles' slots; at
// quiescence the values must be exactly 0..N-1.
func CombiningSystem(build func() *counter.CombiningCounter, goroutines int, blocks []int) System {
	return func() ([]TaskFunc, func(tr *Trace) error) {
		c := build()
		var values []int64
		tasks := make([]TaskFunc, goroutines)
		for g := range tasks {
			h := c.Handle(g).(*counter.CombiningHandle)
			tasks[g] = func(y *Yield) {
				for _, b := range blocks {
					dst := make([]int64, b)
					h.NextBlockHooked(dst, y.Step, y.Block)
					values = append(values, dst...)
				}
			}
		}
		return tasks, func(tr *Trace) error { return gapFree("combining counter values", values, tr) }
	}
}

// PoolSystem runs pairs producer tasks and pairs consumer tasks over a
// fresh pool.Pool built on net; producer g puts the itemsPer items
// g*itemsPer..(g+1)*itemsPer-1 and every consumer gets itemsPer items.
// At quiescence each item must have been delivered exactly once —
// the pool's contract, inherited from gap-free counting on both the
// put and get networks. Unbalanced schedules that strand a getter are
// reported as deadlocks by Run.
func PoolSystem(net *network.Network, pairs, itemsPer int) System {
	return func() ([]TaskFunc, func(tr *Trace) error) {
		p := pool.New[int64](net)
		got := make([]int64, 0, pairs*itemsPer)
		tasks := make([]TaskFunc, 0, 2*pairs)
		for g := 0; g < pairs; g++ {
			g := g
			tasks = append(tasks, func(y *Yield) {
				for k := 0; k < itemsPer; k++ {
					p.PutHooked(int64(g*itemsPer+k), y.Step)
				}
			})
		}
		for g := 0; g < pairs; g++ {
			tasks = append(tasks, func(y *Yield) {
				for k := 0; k < itemsPer; k++ {
					got = append(got, p.GetHooked(y.Step, y.Block))
				}
			})
		}
		return tasks, func(tr *Trace) error { return gapFree("pool deliveries (exactly-once)", got, tr) }
	}
}

// gapFree checks the counting contract at quiescence: sorted, values
// are exactly 0..N-1. what names the values in the error.
func gapFree(what string, values []int64, tr *Trace) error {
	got := slices.Clone(values)
	slices.Sort(got)
	for i, v := range got {
		if v != int64(i) {
			return fmt.Errorf("sched: %s not gap-free at quiescence: sorted[%d] = %d (values %v)\nschedule:\n%s",
				what, i, v, got, tr)
		}
	}
	return nil
}
