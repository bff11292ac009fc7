package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"countnet"
)

// The sort workload: one producer streams seeded random int64 batches
// of width 64, alternating between SortStream on L(4,4,4) (39 layers of
// 4-wide gates) and SortStream on K(4,4,4) (5 layers of gates up to 16
// wide). At most inFlight batches are in flight per stream; one
// consumer reads both outputs in submission order.

const (
	sortWidth = 64
	inFlight  = 16
)

// streamFunc is a sorter stream: countnet.Network.SortStream in the
// benchmark, a defective stub in the oracle's self-test.
type streamFunc func(in <-chan []int64) <-chan []int64

type sortRun struct {
	seed    int64
	batches int
	in      [][]int64 // sent to the streams, which reuse them as scratch
	want    [][]int64 // each input, sorted ascending
	out     [][]int64
	sent    []time.Time
}

func newSortRun(seed int64, scale int) *sortRun {
	s := &sortRun{seed: seed, batches: 8192 / scale}
	s.in = slab(s.batches, sortWidth)
	s.want = slab(s.batches, sortWidth)
	s.out = make([][]int64, s.batches)
	s.sent = make([]time.Time, s.batches)
	return s
}

// slab returns n rows of width w backed by one allocation.
func slab(n, w int) [][]int64 {
	flat := make([]int64, n*w)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// genBatches fills in with round r's seeded random values and want with
// their sorted copies.
func genBatches(seed int64, r int, in, want [][]int64) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	for i := range in {
		for j := range in[i] {
			in[i][j] = int64(rng.Uint64())
		}
		copy(want[i], in[i])
		slices.Sort(want[i])
	}
}

func (s *sortRun) round(r int, rec *recorder) roundStats {
	var st roundStats
	genBatches(s.seed, r, s.in, s.want)
	t0 := startSetup()
	l444, err := countnet.NewL(4, 4, 4)
	if err != nil {
		st.err = err
		return st
	}
	k444, err := countnet.NewK(4, 4, 4)
	if err != nil {
		st.err = err
		return st
	}
	ss, err := startStreams([]streamFunc{l444.SortStream, k444.SortStream}, s.want[0], true)
	if err != nil {
		st.err = err
		return st
	}
	st.setup = time.Since(t0)

	w := openWindow()
	lat := ss.run(s.in, s.out, s.sent)
	w.close(&st, int64(s.batches))

	st.setLatency(lat)
	st.failed, st.err = checkBatches(s.out, s.want)
	if rec != nil {
		sp := make([]span, len(lat))
		for i := range lat {
			end := s.sent[i].Add(time.Duration(lat[i] * 1e3))
			sp[i] = span{Name: "countnet.Network.SortStream", Op: int64(r*s.batches + i), Start: rec.since(s.sent[i]), End: rec.since(end)}
		}
		rec.add(sp)
	}
	return st
}

// streams is a set of started sorter streams fed round-robin.
type streams struct {
	ins  []chan []int64
	outs []<-chan []int64
}

// startStreams starts each stream and passes one warm-up batch (a
// reversed copy of sorted) through it, so lazy set-up inside a stream
// is paid before the window opens. With check, a warm-up batch that
// does not come back ascending is an oracle failure.
func startStreams(fns []streamFunc, sorted []int64, check bool) (*streams, error) {
	ss := &streams{}
	for j, fn := range fns {
		in := make(chan []int64)
		out := fn(in)
		ss.ins = append(ss.ins, in)
		ss.outs = append(ss.outs, out)
		warm := slices.Clone(sorted)
		slices.Reverse(warm)
		in <- warm
		if got := <-out; check && !slices.Equal(got, sorted) {
			ss.close()
			return nil, fmt.Errorf("sort oracle: stream %d missorted its warm-up batch", j)
		}
	}
	return ss, nil
}

// close ends every stream's input and drains its output to the close,
// so the streams' goroutines have ended when it returns.
func (ss *streams) close() {
	for _, c := range ss.ins {
		close(c)
	}
	for _, c := range ss.outs {
		for range c {
		}
	}
}

// run streams one window and closes the streams: batch i goes to
// stream i%len; a producer goroutine sends while the caller consumes
// in order. It stores the outputs in out and returns each batch's
// send-to-receive latency in µs.
func (ss *streams) run(in, out [][]int64, sent []time.Time) []float64 {
	k := len(ss.ins)
	slots := make([]chan struct{}, k) // semaphores bounding batches in flight
	for j := range slots {
		slots[j] = make(chan struct{}, inFlight)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, b := range in {
			j := i % k
			slots[j] <- struct{}{}
			sent[i] = time.Now()
			ss.ins[j] <- b
		}
	}()
	lat := make([]float64, len(in))
	for i := range in {
		j := i % k
		b := <-ss.outs[j]
		now := time.Now()
		<-slots[j]
		out[i] = b
		lat[i] = float64(now.Sub(sent[i]).Nanoseconds()) / 1e3
	}
	<-done
	ss.close()
	return lat
}

// checkBatches is the sort oracle: each output must be ascending and a
// permutation of its input, i.e. equal to the input sorted. It returns
// the number of wrong batches.
func checkBatches(out, want [][]int64) (int64, error) {
	var failed int64
	var first error
	for i := range want {
		var err error
		switch {
		case len(out[i]) != len(want[i]):
			err = fmt.Errorf("batch %d: %d values out for %d in", i, len(out[i]), len(want[i]))
		case !slices.IsSorted(out[i]):
			err = fmt.Errorf("batch %d is not ascending", i)
		case !slices.Equal(out[i], want[i]):
			err = fmt.Errorf("batch %d is not a permutation of its input", i)
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
		out[i] = nil
	}
	if first != nil {
		return failed, fmt.Errorf("sort oracle: %d of %d batches wrong, first: %w", failed, len(want), first)
	}
	return 0, nil
}
