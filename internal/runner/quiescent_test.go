package runner

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"countnet/internal/network"
	"countnet/internal/seq"
)

func singleBalancer(p int) *network.Network {
	b := network.NewBuilder(p)
	b.Add(network.Identity(p), "")
	return b.Build("bal", nil)
}

func TestApplyTokensSingleBalancer(t *testing.T) {
	cases := []struct {
		p    int
		in   []int64
		want []int64
	}{
		{2, []int64{5, 0}, []int64{3, 2}},
		{2, []int64{2, 2}, []int64{2, 2}},
		{3, []int64{7, 0, 0}, []int64{3, 2, 2}},
		{3, []int64{0, 0, 8}, []int64{3, 3, 2}},
		{4, []int64{1, 1, 1, 0}, []int64{1, 1, 1, 0}},
	}
	for _, c := range cases {
		got := ApplyTokens(singleBalancer(c.p), c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("balancer(%d) on %v = %v, want %v", c.p, c.in, got, c.want)
		}
	}
}

func TestApplyTokensBalancerOutputAlwaysStep(t *testing.T) {
	f := func(a, b, c uint8) bool {
		in := []int64{int64(a), int64(b), int64(c)}
		out := ApplyTokens(singleBalancer(3), in)
		return seq.IsStep(out) && seq.Sum(out) == seq.Sum(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyTokensPreservesSum(t *testing.T) {
	// Random layered networks must conserve tokens.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		w := 3 + rng.Intn(8)
		b := network.NewBuilder(w)
		for g := 0; g < 10; g++ {
			k := 2 + rng.Intn(w-1)
			b.Add(rng.Perm(w)[:k], "")
		}
		n := b.Build("rand", nil)
		in := make([]int64, w)
		for i := range in {
			in[i] = int64(rng.Intn(50))
		}
		out := ApplyTokens(n, in)
		if seq.Sum(out) != seq.Sum(in) {
			t.Fatalf("tokens not conserved: in %v out %v", in, out)
		}
	}
}

func TestApplyTokensPanics(t *testing.T) {
	n := singleBalancer(2)
	for _, in := range [][]int64{{1}, {1, 2, 3}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ApplyTokens(%v) did not panic", in)
				}
			}()
			ApplyTokens(n, in)
		}()
	}
}

func TestApplyTokensSerialMatchesQuiescent(t *testing.T) {
	// For any network and any token injection, per-wire exit counts of
	// the serial schedule equal the quiescent transfer function.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		w := 2 + rng.Intn(7)
		b := network.NewBuilder(w)
		for g := 0; g < 8; g++ {
			k := 2 + rng.Intn(w-1)
			b.Add(rng.Perm(w)[:k], "")
		}
		n := b.Build("rand", nil)
		nTokens := rng.Intn(60)
		tokens := make([]int, nTokens)
		counts := make([]int64, w)
		for i := range tokens {
			tokens[i] = rng.Intn(w)
			counts[tokens[i]]++
		}
		run, _ := RunTokens(n, tokens, nil)
		serial, exits := run.Counts, run.Exits
		quiesced := ApplyTokens(n, counts)
		if !reflect.DeepEqual(serial, quiesced) {
			t.Fatalf("trial %d: serial %v != quiescent %v", trial, serial, quiesced)
		}
		// Exits must be consistent with the counts.
		recount := make([]int64, w)
		for _, pos := range exits {
			if pos < 0 || pos >= w {
				t.Fatalf("exit position %d out of range", pos)
			}
			recount[pos]++
		}
		if !reflect.DeepEqual(recount, serial) {
			t.Fatalf("exit positions inconsistent: %v vs %v", recount, serial)
		}
	}
}

func TestApplyTokensSerialTokenOrderIrrelevantForCounts(t *testing.T) {
	// The multiset of entry wires determines exit counts: shuffling the
	// injection order must not change them (balancers are deterministic
	// in arrival rank only, and serial injection fixes ranks per gate by
	// path; this property is what makes the quiescent engine exact).
	rng := rand.New(rand.NewSource(9))
	b := network.NewBuilder(4)
	b.Add([]int{0, 1}, "")
	b.Add([]int{2, 3}, "")
	b.Add([]int{0, 2}, "")
	b.Add([]int{1, 3}, "")
	n := b.Build("small", nil)
	tokens := []int{0, 0, 1, 2, 3, 3, 3, 1, 0}
	want, _ := RunTokens(n, tokens, nil)
	for trial := 0; trial < 30; trial++ {
		shuffled := append([]int(nil), tokens...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, _ := RunTokens(n, shuffled, nil)
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Fatalf("counts depend on injection order: %v vs %v", got.Counts, want.Counts)
		}
	}
}

func TestApplyTokensSerialPanicsOnBadWire(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunTokens(singleBalancer(2), []int{5}, nil)
}

func TestStepperMatchesApplyTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	b := network.NewBuilder(6)
	b.Add([]int{0, 1, 2}, "")
	b.Add([]int{3, 4, 5}, "")
	b.Add([]int{0, 3}, "")
	b.Add([]int{2, 5}, "")
	n := b.Build("mix", []int{5, 4, 3, 2, 1, 0})
	s := NewStepper(n)
	for trial := 0; trial < 300; trial++ {
		in := make([]int64, 6)
		for i := range in {
			in[i] = int64(rng.Intn(40))
		}
		want := ApplyTokens(n, in)
		got := s.Step(in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Stepper(%v) = %v, want %v", in, got, want)
		}
	}
	// Buffer reuse.
	a := s.Step(make([]int64, 6))
	bb := s.Step(make([]int64, 6))
	if &a[0] != &bb[0] {
		t.Error("Stepper allocated per call")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("width mismatch accepted")
			}
		}()
		s.Step([]int64{1})
	}()
}

func TestApplyTokensEmptyNetwork(t *testing.T) {
	n := network.NewBuilder(3).Build("empty", nil)
	in := []int64{4, 0, 2}
	out := ApplyTokens(n, in)
	if !reflect.DeepEqual(out, in) {
		t.Errorf("empty network should be identity: %v", out)
	}
}
