// Schedule-exploration suite for the flat-combining counter: the real
// slot protocol (publish → combiner-lock attempt → slot collection →
// batch traversal → per-exit claims → slot release) runs under
// controlled interleavings, so a combiner serving other handles'
// requests is explored, and at quiescence the drawn values must be
// exactly 0..N-1. Lives in package counter_test because sched imports
// counter.
package counter_test

import (
	"testing"

	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/sched"
)

// combiningBlocks is the per-handle draw sequence of the explored
// combining suites: a single value, then a block of three.
var combiningBlocks = []int{1, 3}

// combiningBuild returns a builder for a fresh combining counter over
// K(2,2).
func combiningBuild(t testing.TB) func() *counter.CombiningCounter {
	t.Helper()
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return func() *counter.CombiningCounter { return counter.NewCombiningCounter(net) }
}

// TestCombiningExplored explores random, PCT, and
// bounded-preemption-exhaustive interleavings of three handles drawing
// blocks of 1 and 3: no value may be lost or duplicated, whichever
// handle's pass serves a request.
func TestCombiningExplored(t *testing.T) {
	sys := sched.CombiningSystem(combiningBuild(t), 3, combiningBlocks)
	if rep := sched.ExploreRandom(sys, 0xc0b, 200, 30_000); rep.Failure != nil {
		t.Errorf("random: %s", rep.Failure)
	}
	if rep := sched.ExplorePCT(sys, 0xc0b, 200, 30_000, 3, 3); rep.Failure != nil {
		t.Errorf("pct: %s", rep.Failure)
	}
	if rep := sched.ExploreDFS(sys, 1, 20_000, 30_000); rep.Failure != nil {
		t.Errorf("dfs: %s", rep.Failure)
	}
}
