// Schedule exploration of the combining hub: concurrent Hub.Draw calls
// run under the internal/sched controlled scheduler through the one
// draw body, hooked into each lease's CombiningHandle, so a pass that
// serves other leases' slots is explored rather than hoped for.
// Invariant: in every interleaving the issue log and what each worker
// received pass the cross-process oracle with no slack.
package syncsrv_test

import (
	"fmt"
	"testing"

	"countnet/internal/core"
	"countnet/internal/harness"
	"countnet/internal/harness/syncsrv"
	"countnet/internal/obs"
	"countnet/internal/sched"
)

// hubDrawSystem builds a sched.System of one task per worker, each
// leasing one block per entry of blocks from a fresh hub over K(2,2).
// maxQueue collects the most leases one combine pass served.
func hubDrawSystem(t *testing.T, workers int, blocks []int, maxQueue *int64) sched.System {
	t.Helper()
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, b := range blocks {
		want += int64(workers * b)
	}
	return func() ([]sched.TaskFunc, func(*sched.Trace) error) {
		h := syncsrv.NewHub(net)
		o := syncsrv.EnableDrawObs(h, obs.NewRegistry())
		got := make(map[string][]int64, workers)
		errs := make([]error, workers)
		tasks := make([]sched.TaskFunc, workers)
		for i := range tasks {
			w := fmt.Sprintf("w%d", i)
			if _, err := h.Register(w); err != nil {
				t.Fatal(err)
			}
			tasks[i] = func(y *sched.Yield) {
				for _, n := range blocks {
					vals, err := syncsrv.DrawHooked(h, w, n, y.Step, y.Block)
					if err != nil {
						errs[i] = err
						return
					}
					got[w] = append(got[w], vals...)
				}
			}
		}
		check := func(tr *sched.Trace) error {
			for i, err := range errs {
				if err != nil {
					return fmt.Errorf("w%d: %v", i, err)
				}
			}
			if err := harness.CheckRun(h.Width(), h.IssueLog(), got, nil); err != nil {
				return err
			}
			if served := o.PassServed.Snapshot().Sum; served != want {
				return fmt.Errorf("combine passes served %d values, want %d (every value leased)", served, want)
			}
			*maxQueue = max(*maxQueue, o.PassQueue.Snapshot().Max)
			return nil
		}
		return tasks, check
	}
}

// TestHubDrawUnderExploredSchedules drives random and bounded-
// preemption-exhaustive interleavings of three workers' leases through
// the hub. Every schedule must pass the oracle with no slack, and some
// explored pass must serve at least two leases: the hub really
// combines, rather than running one pass per draw.
func TestHubDrawUnderExploredSchedules(t *testing.T) {
	var maxQueue int64
	sys := hubDrawSystem(t, 3, []int{1, 2}, &maxQueue)
	if rep := sched.ExploreRandom(sys, 0x4ab, 150, 30_000); rep.Failure != nil {
		t.Errorf("random: %s", rep.Failure)
	}
	if rep := sched.ExploreDFS(sys, 1, 5_000, 30_000); rep.Failure != nil {
		t.Errorf("dfs: %s", rep.Failure)
	}
	if maxQueue < 2 {
		t.Errorf("most leases served by one explored pass = %d; the hub never combined two draws", maxQueue)
	}
}
