// Schedule exploration with observability enabled: the instrumented
// hooked paths record counts only (no clock reads), so controlled
// runs must stay deterministic and the counter invariants must hold
// unchanged. Lives in package counter_test because sched imports
// counter.
package counter_test

import (
	"fmt"
	"sort"
	"testing"

	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/obs"
	"countnet/internal/sched"
)

// observedCounterSystem mirrors sched.CounterSystem but enables
// observability on every fresh counter, registering into a throwaway
// registry so explored schedules never touch global state.
func observedCounterSystem(t *testing.T, goroutines, opsPer int) sched.System {
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := net.Width()
	return func() ([]sched.TaskFunc, func(tr *sched.Trace) error) {
		c := counter.NewNetworkCounter(net, false)
		o := c.EnableObs("explored", obs.NewRegistry())
		values := make([]int64, 0, goroutines*opsPer)
		tasks := make([]sched.TaskFunc, goroutines)
		for g := 0; g < goroutines; g++ {
			g := g
			tasks[g] = func(y *sched.Yield) {
				wire := g % w
				for k := 0; k < opsPer; k++ {
					values = append(values, c.NextOnHooked(wire, y.Step))
					wire++
					if wire == w {
						wire = 0
					}
				}
			}
		}
		check := func(tr *sched.Trace) error {
			got := append([]int64(nil), values...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			for i, v := range got {
				if v != int64(i) {
					return fmt.Errorf("observed counter not gap-free: sorted[%d] = %d (values %v)", i, v, got)
				}
			}
			// Hooked values count Ops but read no clock.
			if ops := o.Ops.Load(); ops != int64(len(values)) {
				return fmt.Errorf("observed counter Ops = %d, want %d (one per value issued)", ops, len(values))
			}
			if n := o.NextNs.Snapshot().Count; n != 0 {
				return fmt.Errorf("hooked values recorded %d next_ns samples; hooked runs must not read the clock", n)
			}
			return nil
		}
		return tasks, check
	}
}

// TestCounterObsUnderExploredSchedules: random and bounded-exhaustive
// exploration over an observed counter — observability must not break
// the gap-free invariant or deterministic replay, and every hooked
// value is counted in Ops.
func TestCounterObsUnderExploredSchedules(t *testing.T) {
	sys := observedCounterSystem(t, 3, 2)
	if rep := sched.ExploreRandom(sys, 0xcafe, 150, 20_000); rep.Failure != nil {
		t.Errorf("random: %s", rep.Failure)
	}
	if rep := sched.ExploreDFS(sys, 1, 20_000, 20_000); rep.Failure != nil {
		t.Errorf("dfs: %s", rep.Failure)
	}
}

// observedCombiningSystem wraps sched.CombiningSystem with an observed
// counter: besides the gap-free oracle, each schedule must count every
// pass (passes, pass_queue and pass_served samples, whose served total
// is every value drawn) and record no pass_ns sample. maxQueue
// collects the deepest pass queue seen across schedules.
func observedCombiningSystem(t *testing.T, goroutines int, blocks []int, maxQueue *int64) sched.System {
	fresh := combiningBuild(t)
	var o *obs.CombineObs
	sys := sched.CombiningSystem(func() *counter.CombiningCounter {
		c := fresh()
		o = c.EnableObs("explored", obs.NewRegistry())
		return c
	}, goroutines, blocks)
	want := int64(0)
	for _, b := range blocks {
		want += int64(goroutines * b)
	}
	return func() ([]sched.TaskFunc, func(tr *sched.Trace) error) {
		tasks, check := sys()
		o := o
		return tasks, func(tr *sched.Trace) error {
			if err := check(tr); err != nil {
				return err
			}
			passes := o.Passes.Load()
			if passes == 0 {
				return fmt.Errorf("observed combining run counted no passes")
			}
			queue, served := o.PassQueue.Snapshot(), o.PassServed.Snapshot()
			if queue.Count != passes || served.Count != passes {
				return fmt.Errorf("passes = %d but pass_queue has %d samples and pass_served %d; want one each per pass",
					passes, queue.Count, served.Count)
			}
			if served.Sum != want {
				return fmt.Errorf("pass_served sums to %d, want %d (every value drawn)", served.Sum, want)
			}
			if n := o.PassNs.Snapshot().Count; n != 0 {
				return fmt.Errorf("hooked passes recorded %d pass_ns samples; hooked runs must not read the clock", n)
			}
			*maxQueue = max(*maxQueue, queue.Max)
			return nil
		}
	}
}

// TestCombiningObsUnderExploredSchedules: random and bounded-exhaustive
// exploration over an observed combining counter — observability must
// not break the gap-free invariant or deterministic replay, hooked
// passes are counted but not timed, and some explored pass serves more
// than one handle's slot (the combining protocol is really explored).
func TestCombiningObsUnderExploredSchedules(t *testing.T) {
	var maxQueue int64
	sys := observedCombiningSystem(t, 3, combiningBlocks, &maxQueue)
	if rep := sched.ExploreRandom(sys, 0xcafe, 150, 30_000); rep.Failure != nil {
		t.Errorf("random: %s", rep.Failure)
	}
	if rep := sched.ExploreDFS(sys, 1, 20_000, 30_000); rep.Failure != nil {
		t.Errorf("dfs: %s", rep.Failure)
	}
	if maxQueue < 2 {
		t.Errorf("deepest explored pass queue = %d; no pass served another handle's slot", maxQueue)
	}
}
