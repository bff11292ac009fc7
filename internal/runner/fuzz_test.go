package runner

import (
	"testing"

	"countnet/internal/network"
	"countnet/internal/seq"
)

// fuzzNet is a fixed counting network (the 4-wide bitonic) used as the
// fuzzing subject; building networks per-input would fuzz the builder,
// not the engines.
func fuzzNet() *network.Network {
	b := network.NewBuilder(4)
	b.Add([]int{0, 1}, "")
	b.Add([]int{2, 3}, "")
	b.Add([]int{0, 3}, "")
	b.Add([]int{1, 2}, "")
	b.Add([]int{0, 1}, "")
	b.Add([]int{2, 3}, "")
	return b.Build("fuzz4", nil)
}

// FuzzApplyTokensStep: for any non-negative token input, the counting
// network's quiescent output has the step property and conserves
// tokens, and the abstract token model agrees with the transfer
// function under the schedule the fuzzer spells out: each byte of
// sched picks the next token to step (index mod the in-flight count),
// and the run goes serial once the bytes run out.
func FuzzApplyTokensStep(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0), []byte(nil))
	f.Add(uint16(1), uint16(0), uint16(0), uint16(0), []byte{0})
	f.Add(uint16(65535), uint16(1), uint16(500), uint16(3), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint16(7), uint16(7), uint16(7), uint16(7), []byte{255, 0, 128, 7})
	net := fuzzNet()
	f.Fuzz(func(t *testing.T, a, b, c, d uint16, sched []byte) {
		in := []int64{int64(a), int64(b), int64(c), int64(d)}
		out := ApplyTokens(net, in)
		if !seq.IsStep(out) {
			t.Fatalf("output %v of %v not step", out, in)
		}
		if seq.Sum(out) != seq.Sum(in) {
			t.Fatalf("token loss: %v -> %v", in, out)
		}
		// Token-model cross-check on a bounded version of the same multiset.
		var tokens []int
		for wire, cnt := range in {
			for k := int64(0); k < cnt%8; k++ {
				tokens = append(tokens, wire)
			}
		}
		small := make([]int64, 4)
		for _, w := range tokens {
			small[w]++
		}
		pick := func(ready []int) int {
			if len(sched) == 0 {
				return 0
			}
			k := int(sched[0]) % len(ready)
			sched = sched[1:]
			return k
		}
		run, _ := RunTokens(net, tokens, pick)
		quiesced := ApplyTokens(net, small)
		for i := range run.Counts {
			if run.Counts[i] != quiesced[i] {
				t.Fatalf("scheduled %v != quiescent %v for %v", run.Counts, quiesced, small)
			}
		}
	})
}

// FuzzComparatorsSort: for any batch, the output is descending and a
// permutation of the input.
func FuzzComparatorsSort(f *testing.F) {
	f.Add(int16(0), int16(0), int16(0), int16(0))
	f.Add(int16(-5), int16(3), int16(32767), int16(-32768))
	f.Add(int16(1), int16(2), int16(3), int16(4))
	net := fuzzNet()
	f.Fuzz(func(t *testing.T, a, b, c, d int16) {
		in := []int64{int64(a), int64(b), int64(c), int64(d)}
		out := ApplyComparators(net, in)
		for i := 1; i < len(out); i++ {
			if out[i-1] < out[i] {
				t.Fatalf("not descending: %v -> %v", in, out)
			}
		}
		var sumIn, sumOut int64
		var xorIn, xorOut int64
		for i := range in {
			sumIn += in[i]
			sumOut += out[i]
			xorIn ^= in[i]
			xorOut ^= out[i]
		}
		if sumIn != sumOut || xorIn != xorOut {
			t.Fatalf("multiset changed: %v -> %v", in, out)
		}
	})
}
