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
