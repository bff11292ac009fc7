package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"countnet"
)

// The count and count-obs workloads: issuers goroutines, one
// CounterHandle each, call Next on a counter over L(4,4) (width 16,
// 4-balancers) in a closed loop. count-obs builds the counter
// WithObservability; everything else is identical, so the pair is the
// on/off cost of the obs layer.

const (
	issuers = 2 // goroutines issuing work; the host this was sized on has 2 cores
	// chunk is how many Next calls share one clock read: a call costs
	// well under a microsecond, so timing each would perturb it.
	chunk    = 1024
	obsGroup = "perfbench.count"
)

// valueSource is what the count window draws from: a CounterHandle in
// the benchmark, a defective stub in the oracle's self-test.
type valueSource interface{ Next() int64 }

type countRun struct {
	obs  bool
	perG int      // values each issuer draws per round
	ids  []int    // handle ids, from the seed: they pick the entry wires
	seen []bitmap // per-issuer record of the values drawn
	lat  [][]float64
	sp   [][]span
}

func newCountRun(obs bool, seed int64, scale int) *countRun {
	rng := rand.New(rand.NewSource(seed))
	c := &countRun{obs: obs, perG: (1 << 19) / scale}
	n := int64(issuers * c.perG)
	for g := 0; g < issuers; g++ {
		c.ids = append(c.ids, rng.Intn(1<<16))
		c.seen = append(c.seen, newBitmap(n))
		c.lat = append(c.lat, make([]float64, 0, c.perG/chunk+1))
		c.sp = append(c.sp, make([]span, 0, c.perG/chunk+1))
	}
	return c
}

func (c *countRun) round(r int, rec *recorder) roundStats {
	var st roundStats
	t0 := startSetup()
	net, err := countnet.NewL(4, 4)
	if err != nil {
		st.err = err
		return st
	}
	var opts []countnet.Option
	if c.obs {
		opts = append(opts, countnet.WithObservability(obsGroup))
	}
	ctr := countnet.NewCounter(net, opts...)
	srcs := make([]valueSource, issuers)
	for g := range srcs {
		srcs[g] = ctr.Handle(c.ids[g])
	}
	st.setup = time.Since(t0)

	n := int64(issuers * c.perG)
	w := openWindow()
	bad := drawValues(srcs, c.perG, c.seen, c.lat, c.sp, rec)
	w.close(&st, n)
	runtime.KeepAlive(ctr)

	st.failed, st.err = checkCounts(c.seen, n, bad)
	if st.err == nil && c.obs {
		st.err = checkObsTotal(obsGroup, n)
	}
	st.setLatency(slices.Concat(c.lat...))
	if rec != nil {
		for _, s := range c.sp {
			rec.add(s)
		}
	}
	return st
}

// drawValues runs one closed-loop window: issuer g draws perG values
// from srcs[g] and marks them in seen[g]. It returns, per issuer, how
// many values were out of range or drawn twice by that issuer.
// lat[g] receives the mean per-call latency of each chunk in µs; with
// a recorder, one call per chunk is timed alone as a span.
func drawValues(srcs []valueSource, perG int, seen []bitmap, lat [][]float64, sp [][]span, rec *recorder) []int64 {
	bad := make([]int64, len(srcs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g, src := range srcs {
		seen[g].clear()
		lat[g] = lat[g][:0]
		sp[g] = sp[g][:0]
		wg.Add(1)
		go func(g int, src valueSource) {
			defer wg.Done()
			bm := seen[g]
			<-start
			last := time.Now()
			for i := 1; i <= perG; i++ {
				var v int64
				if rec != nil && i%chunk == chunk/2 {
					s := time.Now()
					v = src.Next()
					e := time.Now()
					sp[g] = append(sp[g], span{Name: "countnet.CounterHandle.Next", Op: v, Start: rec.since(s), End: rec.since(e)})
				} else {
					v = src.Next()
				}
				if !bm.mark(v) {
					bad[g]++
				}
				if i%chunk == 0 {
					now := time.Now()
					lat[g] = append(lat[g], float64(now.Sub(last).Nanoseconds())/chunk/1e3)
					last = now
				}
			}
		}(g, src)
	}
	close(start)
	wg.Wait()
	return bad
}

// checkCounts is the count oracle: after quiescence the values drawn
// by all issuers together must be exactly 0..n-1. bad holds each
// issuer's own out-of-range and repeated draws; overlaps between
// issuers and values never drawn are found by merging the bitmaps.
// It returns the number of failed draws.
func checkCounts(seen []bitmap, n int64, bad []int64) (int64, error) {
	var failed int64
	for _, b := range bad {
		failed += b
	}
	var dup, missing int64
	firstMissing := int64(-1)
	for i := range seen[0].words {
		var union, twice uint64
		for _, s := range seen {
			twice |= union & s.words[i]
			union |= s.words[i]
		}
		dup += int64(bits.OnesCount64(twice))
		want := ^uint64(0)
		if rest := n - int64(i)*64; rest < 64 {
			want = (1 << uint(rest)) - 1
		}
		if m := want &^ union; m != 0 {
			missing += int64(bits.OnesCount64(m))
			if firstMissing < 0 {
				firstMissing = int64(i)*64 + int64(bits.TrailingZeros64(m))
			}
		}
	}
	failed += dup + missing
	if failed > 0 {
		return failed, fmt.Errorf("count oracle: %d draws out of range or repeated by one issuer, %d values drawn by two issuers, %d of 0..%d never drawn (first %d)",
			failed-dup-missing, dup, missing, n-1, firstMissing)
	}
	return 0, nil
}

// checkObsTotal is the count-obs oracle: the observability snapshot
// must account for every value drawn, both as the counter's ops and as
// tokens entering the network's first layer.
func checkObsTotal(group string, n int64) error {
	raw, err := countnet.ObsSnapshotJSON()
	if err != nil {
		return fmt.Errorf("obs oracle: %w", err)
	}
	var snap struct {
		Groups []struct {
			Name     string `json:"name"`
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
			Layers []struct {
				Layer  int   `json:"layer"`
				Tokens int64 `json:"tokens"`
			} `json:"layers"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("obs oracle: %w", err)
	}
	for _, g := range snap.Groups {
		if g.Name != group {
			continue
		}
		ops, layer1 := int64(-1), int64(-1)
		for _, m := range g.Counters {
			if m.Name == "ops" {
				ops = m.Value
			}
		}
		for _, l := range g.Layers {
			if l.Layer == 1 {
				layer1 = l.Tokens
			}
		}
		if ops != n || layer1 != n {
			return fmt.Errorf("obs oracle: %d values drawn, snapshot counts ops=%d and %d first-layer tokens", n, ops, layer1)
		}
		return nil
	}
	return fmt.Errorf("obs oracle: group %q missing from the snapshot", group)
}

// bitmap records which of the values 0..n-1 were drawn.
type bitmap struct {
	words []uint64
	n     int64
}

func newBitmap(n int64) bitmap { return bitmap{words: make([]uint64, (n+63)/64), n: n} }

func (b bitmap) clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// mark records v and reports whether it was in range and new.
func (b bitmap) mark(v int64) bool {
	if v < 0 || v >= b.n {
		return false
	}
	w, bit := v>>6, uint64(1)<<uint(v&63)
	if b.words[w]&bit != 0 {
		return false
	}
	b.words[w] |= bit
	return true
}
