// Schedule-exploration suite for the adaptive counter's engine
// transitions: the real epoch-handoff code (seal → drain → fence →
// install racing against publish → seal-check draws) runs under
// controlled interleavings, and at quiescence the issued values must
// be exactly 0..N-1 across atomic↔network↔combining switches. Lives in
// package counter_test because sched imports counter.
package counter_test

import (
	"strings"
	"testing"

	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/sched"
)

// explorePolicies are the prefetch settings the explored suites run
// under: one value per draw, and two, so a second Next is served from
// the prefetch buffer and a run can end with values still unserved.
var explorePolicies = []struct {
	name     string
	prefetch int
}{
	{"prefetch1", 1},
	{"prefetch2", 2},
}

// prefetchPolicy returns the default policy with every engine's
// prefetch block set to b.
func prefetchPolicy(b int) *counter.AdaptivePolicy {
	pol := counter.DefaultAdaptivePolicy()
	pol.Prefetch = [3]int{b, b, b}
	return &pol
}

// adaptiveBuild returns a builder for a fresh adaptive counter on the
// given initial engine over K(2,2), under the given policy.
func adaptiveBuild(t *testing.T, initial counter.EngineKind, pol *counter.AdaptivePolicy) func() *counter.AdaptiveCounter {
	t.Helper()
	net, err := core.K(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return func() *counter.AdaptiveCounter {
		return counter.NewAdaptiveCounter(net, initial, pol)
	}
}

// TestAdaptiveTransitionsExplored explores random, PCT, and
// bounded-preemption-exhaustive interleavings of concurrent draws with
// a switcher walking every engine: no value may be lost or duplicated
// across a transition.
func TestAdaptiveTransitionsExplored(t *testing.T) {
	plans := []struct {
		name    string
		initial counter.EngineKind
		plan    []counter.EngineKind
	}{
		{"atomic->network->combining", counter.EngineAtomic,
			[]counter.EngineKind{counter.EngineNetwork, counter.EngineCombining}},
		{"combining->atomic", counter.EngineCombining,
			[]counter.EngineKind{counter.EngineAtomic}},
		{"network->combining->network", counter.EngineNetwork,
			[]counter.EngineKind{counter.EngineCombining, counter.EngineNetwork}},
	}
	for _, pc := range explorePolicies {
		for _, tc := range plans {
			name := pc.name + " " + tc.name
			sys := sched.AdaptiveSystem(adaptiveBuild(t, tc.initial, prefetchPolicy(pc.prefetch)), 2, 2, tc.plan)
			if rep := sched.ExploreRandom(sys, 0xadab, 200, 30_000); rep.Failure != nil {
				t.Errorf("%s random: %s", name, rep.Failure)
			}
			if rep := sched.ExplorePCT(sys, 0xadab, 200, 30_000, 3, 3); rep.Failure != nil {
				t.Errorf("%s pct: %s", name, rep.Failure)
			}
			if rep := sched.ExploreDFS(sys, 1, 20_000, 30_000); rep.Failure != nil {
				t.Errorf("%s dfs: %s", name, rep.Failure)
			}
		}
	}
}

// TestAdaptiveRevisitsEngineExplored re-enters an engine already used
// in an earlier epoch (atomic → network → atomic), the case where the
// fence arithmetic must account for the engine's non-zero issued count
// from its previous epoch.
func TestAdaptiveRevisitsEngineExplored(t *testing.T) {
	plan := []counter.EngineKind{counter.EngineNetwork, counter.EngineAtomic}
	for _, pc := range explorePolicies {
		sys := sched.AdaptiveSystem(adaptiveBuild(t, counter.EngineAtomic, prefetchPolicy(pc.prefetch)), 2, 2, plan)
		if rep := sched.ExploreRandom(sys, 0xcafe, 300, 30_000); rep.Failure != nil {
			t.Errorf("%s random: %s", pc.name, rep.Failure)
		}
		if rep := sched.ExploreDFS(sys, 1, 20_000, 30_000); rep.Failure != nil {
			t.Errorf("%s dfs: %s", pc.name, rep.Failure)
		}
	}
}

// TestAdaptiveUndrainedSwitchRefuted proves the harness has teeth: a
// switch that skips the drain step reads its fence while draws are
// still in flight, and exploration must find a schedule that loses or
// duplicates a value.
func TestAdaptiveUndrainedSwitchRefuted(t *testing.T) {
	plan := []counter.EngineKind{counter.EngineNetwork}
	for _, pc := range explorePolicies {
		fresh := adaptiveBuild(t, counter.EngineAtomic, prefetchPolicy(pc.prefetch))
		build := func() *counter.AdaptiveCounter {
			c := fresh()
			c.UnsafeDisableDrainForTest()
			return c
		}
		sys := sched.AdaptiveSystem(build, 2, 2, plan)
		rep := sched.ExploreRandom(sys, 7, 10_000, 30_000)
		if rep.Failure == nil {
			t.Fatalf("%s: undrained engine switch not detected by exploration", pc.name)
		}
		if !strings.Contains(rep.Failure.Err.Error(), "gap-free") {
			t.Fatalf("%s: unexpected failure: %v", pc.name, rep.Failure.Err)
		}
		t.Logf("%s: detected in %d schedule(s): %v", pc.name, rep.Schedules, rep.Failure.Err)
	}
}
