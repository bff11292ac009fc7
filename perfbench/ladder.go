package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"countnet"
	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/harness/syncsrv"
	"countnet/internal/network"
	"countnet/internal/obs"
	"countnet/internal/runner"
)

// The traced run's layer ladder. Each rung times calls into one
// layer's public functions from outside, with the workloads' inputs and
// issuer counts; a rung's self time is its median minus the median of
// its base rung. Every traced run measures every rung, whatever its
// workload, so each reports the full per-layer metric set; moves names
// the end-to-end metric, on the workload, that a change in the rung's
// layer should move.

// rung is one layer measurement.
type rung struct {
	name  string
	base  string
	moves string
	// rep makes one repetition on fresh structures and returns it in
	// the metric's unit.
	rep func() (float64, error)
}

// ladder holds the workload inputs the rungs run on.
type ladder struct {
	scale   int
	ids     []int    // count handle ids
	workers []string // lease worker ids
	batches [][]int64
	sorted  [][]int64
	work    [][]int64 // scratch copy for rungs that sort in place
	out     [][]int64
	sent    []time.Time
	// hubGrowth collects the hub rung's heap growth per leased value.
	hubGrowth []float64
}

func newLadder(seed int64, scale int) *ladder {
	cr := newCountRun(false, seed, scale)
	lr := newLeaseRun(seed, scale)
	n := 2048 / scale
	l := &ladder{scale: scale, ids: cr.ids, workers: lr.workers,
		batches: slab(n, sortWidth), sorted: slab(n, sortWidth), work: slab(n, sortWidth),
		out: make([][]int64, n), sent: make([]time.Time, n)}
	genBatches(seed, -1, l.batches, l.sorted)
	return l
}

// rungs lists the ladder bottom-up within each path.
func (l *ladder) rungs() []rung {
	// The factors are constants, so a construction error is a bug.
	l44, l24 := must(core.L(4, 4)), must(core.L(2, 4))
	l444, k444 := must(core.L(4, 4, 4)), must(core.K(4, 4, 4))
	pub44 := must(countnet.NewL(4, 4))
	pubL444, pubK444 := must(countnet.NewL(4, 4, 4)), must(countnet.NewK(4, 4, 4))
	tokens := (1 << 16) / l.scale
	rs := []rung{
		{"core.build_ms", "", "setup_s on every workload", l.buildRep},
		{"runner.compile_ms", "", "setup_s on count, count-obs", func() (float64, error) {
			return msPer(10, func() { runner.Compile(l44) }), nil
		}},
		{"runner.compile_plan_ms", "", "setup_s on sort", func() (float64, error) {
			return msPer(10, func() { runner.CompilePlan(l444); runner.CompilePlan(k444) }), nil
		}},
		{"runner.traverse_ns", "", "ops_per_s, cpu_us_per_op on count", func() (float64, error) {
			a := runner.Compile(l44)
			w := a.Width()
			return nsPerCall(tokens, func(g int) func() {
				wire := l.ids[g] % w
				return func() {
					a.Traverse(wire)
					if wire++; wire == w {
						wire = 0
					}
				}
			}), nil
		}},
		{"counter.next_ns", "runner.traverse_ns", "ops_per_s on count", func() (float64, error) {
			c := counter.NewNetworkCounter(l44, false)
			return nsPerCall(tokens, func(g int) func() { return nextFn(c.Handle(l.ids[g])) }), nil
		}},
		{"countnet.next_ns", "counter.next_ns", "ops_per_s on count, count-obs", func() (float64, error) {
			c := countnet.NewCounter(pub44)
			return nsPerCall(tokens, func(g int) func() { return nextFn(c.Handle(l.ids[g])) }), nil
		}},
		{"counter.next_obs_ns", "counter.next_ns", "ops_per_s on count-obs", func() (float64, error) {
			c := counter.NewNetworkCounter(l44, false)
			c.EnableObs("perfbench.ladder", obs.NewRegistry())
			return nsPerCall(tokens, func(g int) func() { return nextFn(c.Handle(l.ids[g])) }), nil
		}},
		{"countnet.next_obs_ns", "counter.next_obs_ns", "ops_per_s on count-obs", func() (float64, error) {
			c := countnet.NewCounter(pub44, countnet.WithObservability("perfbench.ladder"))
			return nsPerCall(tokens, func(g int) func() { return nextFn(c.Handle(l.ids[g])) }), nil
		}},
		{"counter.combining_block_ns", "", "op_p50_us on lease", func() (float64, error) {
			c := counter.NewCombiningCounter(l24)
			return nsPerCall(tokens/4, func(g int) func() {
				h := c.Handle(g).(*counter.CombiningHandle)
				buf := make([]int64, leaseSize)
				return func() { h.NextBlock(buf) }
			}), nil
		}},
		{"syncsrv.hub_draw_ns", "counter.combining_block_ns", "op_p50_us on lease", func() (float64, error) {
			return l.hubRep(l24, tokens/4)
		}},
		{"syncsrv.client_draw_us", "syncsrv.hub_draw_ns", "op_p50_us, ops_per_s on lease", func() (float64, error) {
			return l.clientRep(l24, 1000/l.scale)
		}},
	}
	for _, sn := range []struct {
		name  string
		inner *network.Network
		pub   *countnet.Network
	}{{"L444", l444, pubL444}, {"K444", k444, pubK444}} {
		name, inner, pub := sn.name, sn.inner, sn.pub
		rs = append(rs,
			rung{"runner.plan_apply_ns." + name, "", "ops_per_s on sort", func() (float64, error) {
				p := runner.CompilePlan(inner)
				s, dst := p.NewScratch(), make([]int64, sortWidth)
				return nsPerBatch(len(l.batches), func() {
					for _, b := range l.batches {
						p.Apply(dst, b, s)
					}
				}), nil
			}},
			rung{"countnet.batchsorter_ns." + name, "runner.plan_apply_ns." + name, "ops_per_s on sort", func() (float64, error) {
				bs := countnet.NewBatchSorter(pub)
				return nsPerBatch(len(l.batches), func() {
					for _, b := range l.batches {
						bs.Sort(b)
					}
				}), nil
			}},
			rung{"runner.pipeline_ns." + name, "runner.plan_apply_ns." + name, "ops_per_s, op_p50_us on sort", func() (float64, error) {
				var p *runner.Pipeline
				v, err := l.streamRep(func(in <-chan []int64) <-chan []int64 {
					p = runner.NewPipeline(inner, 2)
					go func() {
						for b := range in {
							p.Submit(b)
						}
						p.Close()
					}()
					return p.Results()
				}, false)
				p.Wait()
				return v, err
			}},
			rung{"countnet.sortstream_ns." + name, "runner.pipeline_ns." + name, "ops_per_s, op_p50_us on sort", func() (float64, error) {
				return l.streamRep(pub.SortStream, true)
			}},
		)
	}
	return rs
}

// buildRep times building every network the workloads use.
func (l *ladder) buildRep() (float64, error) {
	t0 := time.Now()
	for _, f := range [][]int{{4, 4}, {2, 4}, {4, 4, 4}} {
		if _, err := countnet.NewL(f...); err != nil {
			return 0, err
		}
	}
	if _, err := countnet.NewK(4, 4, 4); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6, nil
}

// hubRep times Hub.Draw without HTTP and records the hub's heap growth
// per leased value.
func (l *ladder) hubRep(net *network.Network, n int) (float64, error) {
	hub := syncsrv.NewHub(net)
	defer hub.Close()
	for _, w := range l.workers {
		if _, err := hub.Register(w); err != nil {
			return 0, err
		}
	}
	var drawErr firstErr
	before := heapAlloc()
	ns := nsPerCall(n, func(g int) func() {
		w := l.workers[g]
		return func() {
			_, err := hub.Draw(w, leaseSize)
			drawErr.set(err)
		}
	})
	after := heapAlloc()
	runtime.KeepAlive(hub)
	l.hubGrowth = append(l.hubGrowth, float64(int64(after)-int64(before))/float64(issuers*n*leaseSize))
	return ns, drawErr.err
}

// clientRep times Client.Draw through an in-process server.
func (l *ladder) clientRep(net *network.Network, n int) (float64, error) {
	hub := syncsrv.NewHub(net)
	srv := syncsrv.NewServer(hub)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return 0, err
	}
	defer stopServer(srv)
	cl := syncsrv.NewClient(srv.URL())
	for _, w := range l.workers {
		if _, err := cl.Register(w); err != nil {
			return 0, err
		}
	}
	var drawErr firstErr
	ns := nsPerCall(n, func(g int) func() {
		w := l.workers[g]
		return func() {
			_, err := cl.Draw(w, leaseSize)
			drawErr.set(err)
		}
	})
	return ns / 1e3, drawErr.err
}

// streamRep times one stream over the ladder's batches with the
// workload's in-flight bound, per batch.
func (l *ladder) streamRep(fn streamFunc, check bool) (float64, error) {
	for i := range l.batches {
		copy(l.work[i], l.batches[i])
	}
	ss, err := startStreams([]streamFunc{fn}, l.sorted[0], check)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	ss.run(l.work, l.out, l.sent)
	return float64(time.Since(t0).Nanoseconds()) / float64(len(l.batches)), nil
}

// nsPerCall runs issuers goroutines, each making n calls of the func
// mk returns for it, and returns the time per call one issuer sees.
func nsPerCall(n int, mk func(g int) func()) float64 {
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < issuers; g++ {
		f := mk(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < n; i++ {
				f()
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func nsPerBatch(n int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func msPer(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(n)
}

// firstErr keeps the first error reported by any goroutine; read err
// once they have all returned.
type firstErr struct {
	once sync.Once
	err  error
}

func (f *firstErr) set(err error) {
	if err != nil {
		f.once.Do(func() { f.err = err })
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func nextFn(h valueSource) func() { return func() { h.Next() } }

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measure runs every rung for its share of budget (at least
// three repetitions), records one span per repetition and returns the
// rung medians plus the derived metrics.
func (l *ladder) measure(budget time.Duration, rec *recorder, out io.Writer) (map[string]float64, error) {
	rs := l.rungs()
	each := budget / time.Duration(len(rs))
	vals := map[string]float64{}
	for _, r := range rs {
		var reps []float64
		var sp []span
		start := time.Now()
		for len(reps) < 3 || time.Since(start) < each {
			s := time.Now()
			v, err := r.rep()
			if err != nil {
				return nil, fmt.Errorf("rung %s: %w", r.name, err)
			}
			sp = append(sp, span{Name: r.name, Op: int64(len(reps)), Start: rec.since(s), End: rec.since(time.Now())})
			reps = append(reps, v)
		}
		rec.add(sp)
		vals[r.name] = median(reps)
	}
	vals["obs.overhead_ratio"] = vals["counter.next_obs_ns"] / vals["counter.next_ns"]
	vals["syncsrv.transport_us"] = vals["syncsrv.client_draw_us"] - vals["syncsrv.hub_draw_ns"]/1e3
	vals["syncsrv.issue_log_bytes_per_value"] = median(l.hubGrowth)

	fmt.Fprintf(out, "# ladder: rung median, its base rung, self time (median minus the base's median)\n")
	for _, r := range rs {
		self := "-"
		if b, ok := vals[r.base]; ok {
			self = fmt.Sprintf("%.6g", vals[r.name]-b*unitScale(r.base, r.name))
		}
		fmt.Fprintf(out, "%-32s %12.6g  base %-28s self %-10s moves %s\n", r.name, vals[r.name], orDash(r.base), self, r.moves)
	}
	return vals, nil
}

// unitScale converts a value of rung from into the unit of rung to.
func unitScale(from, to string) float64 {
	if strings.HasSuffix(from, "_ns") && strings.HasSuffix(to, "_us") {
		return 1e-3
	}
	return 1
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
