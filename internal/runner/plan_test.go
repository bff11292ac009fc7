package runner

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"countnet/internal/core"
	"countnet/internal/network"
)

// goldenPlanNetworks loads every pinned construction from the core
// golden files, so the plan compiler is differentially tested against
// the exact gate-level structures the constructions are pinned to.
func goldenPlanNetworks(t testing.TB) map[string]*network.Network {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden networks found")
	}
	nets := make(map[string]*network.Network, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var n network.Network
		if err := json.Unmarshal(data, &n); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		nets[filepath.Base(p)] = &n
	}
	return nets
}

// constructedPlanNetworks builds fresh K/L/R networks so widths beyond
// the goldens are covered too.
func constructedPlanNetworks(t testing.TB) map[string]*network.Network {
	t.Helper()
	nets := make(map[string]*network.Network)
	for _, c := range []struct {
		name  string
		build func() (*network.Network, error)
	}{
		{"K(2,3,4)", func() (*network.Network, error) { return core.K(2, 3, 4) }},
		{"K(4,4,4)", func() (*network.Network, error) { return core.K(4, 4, 4) }},
		{"L(2,2,2,2)", func() (*network.Network, error) { return core.L(2, 2, 2, 2) }},
		{"R(4,8)", func() (*network.Network, error) { return core.R(4, 8) }},
	} {
		n, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		nets[c.name] = n
	}
	return nets
}

func allPlanNetworks(t testing.TB) map[string]*network.Network {
	nets := goldenPlanNetworks(t)
	for name, n := range constructedPlanNetworks(t) {
		nets[name] = n
	}
	return nets
}

func randomBatch(rng *rand.Rand, w int) []int64 {
	b := make([]int64, w)
	for i := range b {
		b[i] = rng.Int63n(64) - 32
	}
	return b
}

func TestPlanApplyMatchesComparators(t *testing.T) {
	for name, net := range allPlanNetworks(t) {
		t.Run(name, func(t *testing.T) {
			plan := CompilePlan(net)
			if plan.Width() != net.Width() || plan.NumLayers() != net.Depth() {
				t.Fatalf("plan %d/%d, network %d/%d", plan.Width(), plan.NumLayers(), net.Width(), net.Depth())
			}
			rng := rand.New(rand.NewSource(1))
			s := plan.NewScratch()
			for trial := 0; trial < 50; trial++ {
				in := randomBatch(rng, net.Width())
				want := ApplyComparators(net, in)
				got := make([]int64, len(in))
				plan.Apply(got, in, s)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: plan %v, comparators %v, input %v", trial, got, want, in)
				}
				// Nil scratch allocates its own.
				got2 := make([]int64, len(in))
				plan.Apply(got2, in, nil)
				if !reflect.DeepEqual(got2, want) {
					t.Fatalf("trial %d (nil scratch): plan %v, want %v", trial, got2, want)
				}
				// In-place: dst aliasing src.
				inPlace := append([]int64(nil), in...)
				plan.Apply(inPlace, inPlace, s)
				if !reflect.DeepEqual(inPlace, want) {
					t.Fatalf("trial %d (in place): plan %v, want %v", trial, inPlace, want)
				}
			}
		})
	}
}

func TestPlanApplyBatchesMatchesComparators(t *testing.T) {
	for name, net := range allPlanNetworks(t) {
		t.Run(name, func(t *testing.T) {
			plan := CompilePlan(net)
			rng := rand.New(rand.NewSource(2))
			for _, block := range []int{0, 1, 3, DefaultBatchBlock, 100} {
				batches := make([][]int64, 37)
				want := make([][]int64, len(batches))
				for i := range batches {
					batches[i] = randomBatch(rng, net.Width())
					want[i] = ApplyComparators(net, batches[i])
				}
				plan.ApplyBatches(batches, block)
				for i := range batches {
					if !reflect.DeepEqual(batches[i], want[i]) {
						t.Fatalf("block %d, batch %d: plan %v, want %v", block, i, batches[i], want[i])
					}
				}
			}
		})
	}
}

func TestPlanParallelMatchesComparators(t *testing.T) {
	for name, net := range allPlanNetworks(t) {
		t.Run(name, func(t *testing.T) {
			plan := CompilePlan(net)
			for _, workers := range []int{1, 3, 0} {
				pl := plan.NewParallel(workers)
				rng := rand.New(rand.NewSource(3))
				for trial := 0; trial < 10; trial++ {
					in := randomBatch(rng, net.Width())
					want := ApplyComparators(net, in)
					got := make([]int64, len(in))
					pl.Apply(got, in)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("workers %d trial %d: parallel %v, want %v", workers, trial, got, want)
					}
				}
				pl.Close()
				pl.Close() // idempotent
			}
		})
	}
}

func TestPlanWidthMismatchPanics(t *testing.T) {
	plan := CompilePlan(fuzzNet())
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"apply-src", func() { plan.Apply(make([]int64, 4), make([]int64, 3), nil) }},
		{"apply-dst", func() { plan.Apply(make([]int64, 5), make([]int64, 4), nil) }},
		{"batches", func() { plan.ApplyBatches([][]int64{make([]int64, 2)}, 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			c.f()
		})
	}
}

func TestParallelApplyAfterClosePanics(t *testing.T) {
	pl := CompilePlan(fuzzNet()).NewParallel(2)
	pl.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	pl.Apply(make([]int64, 4), make([]int64, 4))
}

func TestPlanGatelessNetwork(t *testing.T) {
	b := network.NewBuilder(3)
	net := b.Build("empty", []int{2, 0, 1})
	plan := CompilePlan(net)
	in := []int64{10, 20, 30}
	got := make([]int64, 3)
	plan.Apply(got, in, nil)
	if want := []int64{30, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("gateless plan = %v, want %v", got, want)
	}
}

func TestPlanApplyAllocationFree(t *testing.T) {
	net, err := core.K(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := CompilePlan(net)
	s := plan.NewScratch()
	in := randomBatch(rand.New(rand.NewSource(4)), net.Width())
	dst := make([]int64, net.Width())
	if n := testing.AllocsPerRun(100, func() { plan.Apply(dst, in, s) }); n != 0 {
		t.Errorf("Plan.Apply allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { plan.Apply(dst, dst, s) }); n != 0 {
		t.Errorf("in-place Plan.Apply allocates %v times per run, want 0", n)
	}
}

func TestPlanApplyRoundTrip(t *testing.T) {
	net := twoSorter()
	plan := CompilePlan(net)
	s := plan.NewScratch()
	got := make([]int64, 4)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		in := make([]int64, 4)
		for i := range in {
			in[i] = int64(rng.Intn(50))
		}
		want := ApplyComparators(net, in)
		plan.Apply(got, in, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Plan.Apply(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestPlanApplyWithOutputOrder(t *testing.T) {
	b := network.NewBuilder(2)
	b.Add([]int{0, 1}, "")
	plan := CompilePlan(b.Build("rev", []int{1, 0}))
	got := make([]int64, 2)
	plan.Apply(got, []int64{1, 9}, nil)
	if !reflect.DeepEqual(got, []int64{1, 9}) {
		t.Errorf("Apply with reversed order = %v", got)
	}
}

func TestPlanApplyInPlace(t *testing.T) {
	plan := CompilePlan(twoSorter())
	s := plan.NewScratch()
	batch := []int64{1, 2, 3, 4}
	plan.Apply(batch, batch, s)
	if !reflect.DeepEqual(batch, []int64{4, 3, 2, 1}) {
		t.Errorf("in-place Apply = %v, want [4 3 2 1]", batch)
	}
}

func TestPlanApplyPanicsOnShortBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	plan := CompilePlan(twoSorter())
	in := []int64{1}
	plan.Apply(in, in, nil)
}

// randomPlanNetwork derives an arbitrary (not necessarily sorting)
// network and batch from fuzz input: the engines must agree on any
// topology, sorted output or not.
func randomPlanNetwork(seed int64, width, gates int) (*network.Network, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	b := network.NewBuilder(width)
	perm := rng.Perm(width)
	for g := 0; g < gates; g++ {
		gw := 2 + rng.Intn(width-1)
		wires := rng.Perm(width)[:gw]
		b.Add(wires, "fuzz")
	}
	var out []int
	if rng.Intn(2) == 0 {
		out = perm
	}
	return b.Build("fuzz", out), rng
}

// FuzzPlanVsComparators cross-checks every plan execution mode against
// the reference gate-by-gate evaluator on arbitrary networks and
// inputs.
func FuzzPlanVsComparators(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6))
	f.Add(int64(2), uint8(2), uint8(1))
	f.Add(int64(3), uint8(13), uint8(40))
	f.Add(int64(99), uint8(31), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, width, gates uint8) {
		w := 2 + int(width)%30
		net, rng := randomPlanNetwork(seed, w, int(gates))
		plan := CompilePlan(net)
		in := randomBatch(rng, w)
		want := ApplyComparators(net, in)

		got := make([]int64, w)
		plan.Apply(got, in, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Apply %v, comparators %v (net %v)", got, want, net)
		}

		batch := [][]int64{append([]int64(nil), in...), randomBatch(rng, w), append([]int64(nil), in...)}
		wantB := make([][]int64, len(batch))
		for i := range batch {
			wantB[i] = ApplyComparators(net, batch[i])
		}
		plan.ApplyBatches(batch, 2)
		for i := range batch {
			if !reflect.DeepEqual(batch[i], wantB[i]) {
				t.Fatalf("ApplyBatches[%d] %v, want %v", i, batch[i], wantB[i])
			}
		}

		pl := plan.NewParallel(2)
		defer pl.Close()
		pl.Apply(got, in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parallel.Apply %v, want %v", got, want)
		}
	})
}
