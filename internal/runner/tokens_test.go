package runner

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"countnet/internal/baseline"
	"countnet/internal/core"
	"countnet/internal/network"
	"countnet/internal/seq"
)

// schedule is a named RunTokens pick; nil is the serial schedule.
type schedule struct {
	name string
	pick func(ready []int) int
}

// schedules returns fresh instances of the generic schedules: serial,
// uniformly random, LIFO (maximal overtaking), round-robin (the
// lock-step schedule of a synchronous execution) and a script that
// steps every token once in a random order before draining serially.
func schedules(rng *rand.Rand, tokens int) []schedule {
	next := 0
	return []schedule{
		{"serial", nil},
		{"random", func(ready []int) int { return rng.Intn(len(ready)) }},
		{"lifo", func(ready []int) int { return len(ready) - 1 }},
		{"round-robin", func(ready []int) int { next++; return (next - 1) % len(ready) }},
		// Every token has at least its exit step left, so naming each once is valid.
		{"script", Script(rng.Perm(tokens))},
	}
}

func entriesFor(rng *rand.Rand, w, n int) ([]int, []int64) {
	entries := make([]int, n)
	counts := make([]int64, w)
	for i := range entries {
		entries[i] = rng.Intn(w)
		counts[entries[i]]++
	}
	return entries, counts
}

// TestScheduleIndependence: for assorted networks and random token
// multisets, every schedule produces exactly the quiescent transfer's
// exit counts — the core semantic fact of balancing networks.
func TestScheduleIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nets := []*network.Network{}
	if n, err := core.K(2, 3, 2); err == nil {
		nets = append(nets, n)
	}
	if n, err := core.L(3, 4); err == nil {
		nets = append(nets, n)
	}
	if n, err := core.R(5, 5); err == nil {
		nets = append(nets, n)
	}
	if n, err := baseline.Bitonic(8); err == nil {
		nets = append(nets, n)
	}
	if n, err := baseline.Bubble(5); err == nil {
		nets = append(nets, n) // NOT a counting network; counts must still be schedule-independent
	}
	for _, net := range nets {
		for trial := 0; trial < 10; trial++ {
			entries, counts := entriesFor(rng, net.Width(), 3*net.Width())
			want := ApplyTokens(net, counts)
			for _, s := range schedules(rng, len(entries)) {
				got, _ := RunTokens(net, entries, s.pick)
				if !reflect.DeepEqual(got.Counts, want) {
					t.Fatalf("%s under %s: counts %v, want %v (entries %v)",
						net.Name, s.name, got.Counts, want, entries)
				}
				if got.Steps == 0 && net.Size() > 0 && len(entries) > 0 {
					t.Fatalf("%s under %s: no gate traversals recorded", net.Name, s.name)
				}
			}
		}
	}
}

// TestCountingNetworksStepUnderAdversarialSchedules: the step property
// holds for counting networks no matter the interleaving.
func TestCountingNetworksStepUnderAdversarialSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := core.L(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		entries, _ := entriesFor(rng, net.Width(), 5*net.Width())
		for _, s := range schedules(rng, len(entries)) {
			got, _ := RunTokens(net, entries, s.pick)
			if !seq.IsStep(got.Counts) {
				t.Fatalf("%s: output %v not step", s.name, got.Counts)
			}
		}
	}
}

// TestExitsConsistentWithCounts: per-token exits re-aggregate to the
// count vector.
func TestExitsConsistentWithCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, _ := baseline.Bitonic(8)
	entries, _ := entriesFor(rng, 8, 40)
	res, _ := RunTokens(net, entries, func(ready []int) int { return rng.Intn(len(ready)) })
	recount := make([]int64, 8)
	for _, pos := range res.Exits {
		recount[pos]++
	}
	if !reflect.DeepEqual(recount, res.Counts) {
		t.Fatalf("exits %v inconsistent with counts %v", res.Exits, res.Counts)
	}
}

// TestTokenPathsDifferButCountsAgree: schedules change individual exits
// but not the counts.
func TestTokenPathsDifferButCountsAgree(t *testing.T) {
	net, _ := baseline.Bitonic(8)
	entries := make([]int, 24)
	for i := range entries {
		entries[i] = i % 8
	}
	serial, _ := RunTokens(net, entries, nil)
	lifo, _ := RunTokens(net, entries, func(ready []int) int { return len(ready) - 1 })
	if !reflect.DeepEqual(serial.Counts, lifo.Counts) {
		t.Fatalf("counts differ: %v vs %v", serial.Counts, lifo.Counts)
	}
	if reflect.DeepEqual(serial.Exits, lifo.Exits) {
		t.Log("note: serial and LIFO gave identical per-token exits on this input")
	}
}

// TestStepsEqualsTokensTimesPathLengths: total gate traversals equal
// the sum over gates of tokens passing them.
func TestStepsEqualsTokensTimesPathLengths(t *testing.T) {
	net, _ := baseline.Bitonic(4) // uniform depth 3, every token crosses 3 gates
	entries := []int{0, 1, 2, 3, 0, 1}
	res, _ := RunTokens(net, entries, nil)
	if want := len(entries) * 3; res.Steps != want {
		t.Fatalf("steps %d, want %d", res.Steps, want)
	}
}

func TestScriptPanicsOnFinishedToken(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net, _ := baseline.Bitonic(4)
	// Token 0 takes 3 gate steps and its exit; a fifth step is a bug.
	RunTokens(net, []int{0, 1}, Script([]int{0, 0, 0, 0, 0}))
}

// TestRunPanicsOnBadEntry guards the input contract under a scheduled
// (non-serial) run: an entry wire outside the network's width panics.
func TestRunPanicsOnBadEntry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net, _ := baseline.Bitonic(4)
	RunTokens(net, []int{7}, func(ready []int) int { return len(ready) - 1 })
}

// linearizabilityWitness runs the two-stalled-token search of the
// paper's Section 6: tokens 0 and 1 stall after s0 and s1 steps
// holding balancer state, A (token 2) runs to completion, then B
// (token 3) starts strictly after A and runs to completion. It reports
// the first execution where value(B) < value(A). Paths must have
// uniform length (depth+1 steps including the exit).
func linearizabilityWitness(net *network.Network) (string, bool) {
	w := net.Width()
	steps := net.Depth() + 1
	for c0 := 0; c0 < w; c0++ {
		for c1 := 0; c1 < w; c1++ {
			for s0 := 1; s0 < steps; s0++ {
				for s1 := 1; s1 < steps; s1++ {
					for ae := 0; ae < w; ae++ {
						for be := 0; be < w; be++ {
							var order []int
							for _, run := range [][2]int{{0, s0}, {1, s1}, {2, steps}, {3, steps}} {
								for i := 0; i < run[1]; i++ {
									order = append(order, run[0])
								}
							}
							// C0, C1 finish afterwards (script drains serially).
							res, _ := RunTokens(net, []int{c0, c1, ae, be}, Script(order))
							vA := res.ExitRanks[2]*w + res.Exits[2]
							vB := res.ExitRanks[3]*w + res.Exits[3]
							if vB < vA {
								return fmt.Sprintf("stalled tokens enter wires %d,%d (stalling after %d,%d steps); "+
									"A enters wire %d and gets value %d; B enters wire %d strictly after A finishes and gets value %d",
									c0, c1, s0, s1, ae, vA, be, vB), true
							}
						}
					}
				}
			}
		}
	}
	return "", false
}

// TestCountingNetworksAreNotLinearizable constructs an explicit
// execution witnessing the Section 6 discussion (c.f. Herlihy, Shavit &
// Waarts): counting networks are quiescently consistent but not
// linearizable. Tokens A and B exist such that A's Fetch&Increment
// completes strictly before B's begins, yet B receives the smaller
// value — impossible for a linearizable counter.
func TestCountingNetworksAreNotLinearizable(t *testing.T) {
	// Depth-1 networks (a single balancer, e.g. K(2,2)) ARE linearizable
	// — see TestSingleBalancerIsLinearizable — so the candidates here
	// are the multi-layer constructions.
	nets := []*network.Network{}
	if n, err := baseline.Bitonic(4); err == nil {
		nets = append(nets, n)
	}
	if n, err := core.L(2, 2); err == nil {
		nets = append(nets, n)
	}
	for _, net := range nets {
		report, found := linearizabilityWitness(net)
		if !found {
			t.Errorf("%s: no linearizability violation found (unexpected for depth > 1)", net.Name)
		} else {
			t.Logf("%s: witness: %s", net.Name, report)
		}
	}
}

// TestSingleBalancerIsLinearizable: the width-p balancer alone (the
// degenerate counting network) admits no such violation — tokens leave
// it in arrival order, so the same search over stalled schedules must
// find nothing.
func TestSingleBalancerIsLinearizable(t *testing.T) {
	n, err := core.K(4) // one 4-balancer
	if err != nil {
		t.Fatal(err)
	}
	if report, found := linearizabilityWitness(n); found {
		t.Fatalf("single balancer violated linearizability: %s", report)
	}
}

// TestQuiescentConsistencyAlwaysHolds: whatever the schedule, once all
// tokens have exited, the assigned values are exactly 0..N-1 — the
// guarantee counting networks DO make.
func TestQuiescentConsistencyAlwaysHolds(t *testing.T) {
	net, err := baseline.Bitonic(4)
	if err != nil {
		t.Fatal(err)
	}
	w := net.Width()
	steps := net.Depth() + 1
	entries := []int{0, 2, 1, 3, 0, 0, 3}
	// A pile of scripted interleavings plus the generic schedules.
	var scheds []schedule
	for shift := 0; shift < steps; shift++ {
		var order []int
		for s := 0; s < steps; s++ {
			for id := range entries {
				order = append(order, (id+shift)%len(entries))
			}
		}
		// Round-robin with rotation; invalid orders (picking finished
		// tokens) cannot arise because all paths have equal length.
		scheds = append(scheds, schedule{fmt.Sprintf("script shift %d", shift), Script(order)})
	}
	scheds = append(scheds, schedules(rand.New(rand.NewSource(8)), len(entries))...)
	for _, s := range scheds {
		res, _ := RunTokens(net, entries, s.pick)
		if !seq.IsStep(res.Counts) {
			t.Fatalf("%s: counts %v not step", s.name, res.Counts)
		}
		seen := make([]bool, len(entries))
		for id := range entries {
			v := res.ExitRanks[id]*w + res.Exits[id]
			if v < 0 || v >= len(entries) || seen[v] {
				t.Fatalf("%s: values not a permutation of 0..%d", s.name, len(entries)-1)
			}
			seen[v] = true
		}
	}
}

func TestRunTracedPathsConsistent(t *testing.T) {
	net, _ := baseline.Bitonic(4)
	entries := []int{0, 1, 2, 3, 0}
	_, paths := RunTokens(net, entries, nil)
	for id, path := range paths {
		if len(path) != net.Depth() {
			t.Errorf("token %d traversed %d gates, want %d (uniform bitonic)", id, len(path), net.Depth())
		}
		// Path continuity: each step leaves on the wire the next step
		// arrives on; first step arrives on the entry wire.
		if len(path) > 0 && path[0].InWire != entries[id] {
			t.Errorf("token %d path starts on wire %d, entered %d", id, path[0].InWire, entries[id])
		}
		for k := 1; k < len(path); k++ {
			if path[k].InWire != path[k-1].OutWire {
				t.Errorf("token %d path discontinuous at step %d", id, k)
			}
		}
	}
}

func TestRunTracedRanksPerGateAreSequential(t *testing.T) {
	net, _ := baseline.Bitonic(8)
	entries := make([]int, 32)
	for i := range entries {
		entries[i] = i % 8
	}
	_, paths := RunTokens(net, entries, func(ready []int) int { return len(ready) - 1 })
	seen := map[int][]bool{} // gate -> ranks seen
	for _, path := range paths {
		for _, st := range path {
			for len(seen[st.Gate]) <= st.Rank {
				seen[st.Gate] = append(seen[st.Gate], false)
			}
			if seen[st.Gate][st.Rank] {
				t.Fatalf("gate %d rank %d assigned twice", st.Gate, st.Rank)
			}
			seen[st.Gate][st.Rank] = true
		}
	}
	for gid, ranks := range seen {
		for r, ok := range ranks {
			if !ok {
				t.Fatalf("gate %d skipped rank %d", gid, r)
			}
		}
	}
}

func TestFormatPaths(t *testing.T) {
	net, _ := baseline.Bitonic(4)
	entries := []int{0, 0}
	res, paths := RunTokens(net, entries, nil)
	out := FormatPaths(net, entries, paths, res)
	for _, frag := range []string{"token 0:", "token 1:", "exit position", "value", "exit counts"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatPaths missing %q:\n%s", frag, out)
		}
	}
	if strings.Count(out, "\n") != 3 {
		t.Errorf("want 3 lines, got:\n%s", out)
	}
}
