package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A run is a sequence of rounds. Each round builds the workload's
// structures from scratch (timed as set-up), issues a fixed amount of
// work (the timed window), checks every output with the workload's
// oracle and tears down. Fixed work per round keeps each round's heap
// and oracle cost independent of how fast the host happened to be;
// reporting the median over rounds keeps one descheduled round on a
// shared host from moving the result.

// roundStats is what one round measured.
type roundStats struct {
	setup  time.Duration
	window time.Duration
	ref    time.Duration // the host reference kernel's time just before the round
	ops    int64
	cpu    time.Duration // process user+sys CPU over the window
	heapMB float64       // heap in use after the forced GC that closes the window
	// Latency quantiles over the round's per-op (count: per-chunk
	// mean) samples, µs. Rounds keep only these, so what a run retains
	// does not grow with its round count and move heap_mb.
	p50, p90, p99 float64
	failed        int64
	err           error // oracle verdict

	// Go runtime activity over the window; the GC figures include the
	// forced collection that closes it.
	mallocs, allocBytes, numGC uint64
	gcPause                    time.Duration
}

// setLatency summarizes the round's latency samples.
func (st *roundStats) setLatency(samples []float64) {
	st.p50 = quantile(samples, 0.5)
	st.p90 = quantile(samples, 0.9)
	st.p99 = quantile(samples, 0.99)
}

// roundFunc runs round r; a non-nil recorder asks for spans.
type roundFunc func(r int, rec *recorder) roundStats

// window brackets a round's timed work: CPU and runtime statistics are
// read outside the timed interval.
type window struct {
	ms0  runtime.MemStats
	cpu0 time.Duration
	t0   time.Time
}

// startSetup collects garbage left by earlier rounds and returns the
// time set-up starts, so every round's set-up begins on the same heap
// and no collection that earlier rounds owe lands inside it.
func startSetup() time.Time {
	runtime.GC()
	return time.Now()
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.ms0)
	w.cpu0 = processCPU()
	w.t0 = time.Now()
	return w
}

// close ends the window, forces a collection with the round's
// structures still reachable (the caller keeps them alive past this
// call) and records the window's cost over ops into st. The forced
// collection is counted in the GC figures, so they never read zero.
func (w *window) close(st *roundStats, ops int64) {
	st.window = time.Since(w.t0)
	st.cpu = processCPU() - w.cpu0
	st.ops = ops
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.mallocs = ms.Mallocs - w.ms0.Mallocs
	st.allocBytes = ms.TotalAlloc - w.ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	st.numGC = uint64(ms.NumGC - w.ms0.NumGC)
	st.gcPause = time.Duration(ms.PauseTotalNs - w.ms0.PauseTotalNs)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRounds runs rounds until budget has elapsed, and at least min
// rounds. It stops early on the first oracle failure.
func runRounds(fn roundFunc, kind refKind, budget time.Duration, min int, rec *recorder) []roundStats {
	out := make([]roundStats, 0, 1024)
	start := time.Now()
	for r := 0; r < min || time.Since(start) < budget; r++ {
		ref := hostRef(kind)
		st := fn(r, rec)
		st.ref = ref
		out = append(out, st)
		if st.err != nil {
			break
		}
	}
	return out
}

// tally folds the rounds' op counts and oracle verdicts into res.
func tally(res *result, rounds []roundStats) error {
	for _, st := range rounds {
		res.Attempted += st.ops
		res.Failed += st.failed
		if st.err != nil {
			res.Correct = false
			return st.err
		}
	}
	if res.Failed > 0 {
		res.Correct = false
		return fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return nil
}

// The host this runs on is shared: over minutes its speed drifts by up
// to 1.6x as other tenants load it, and the drift moves every timing
// of a run alike. Each round therefore first times a fixed reference
// kernel, hostRef, and the round's timings are scaled to the speed at
// which that kernel takes its nominal time: a timing t measured while
// the kernel took ref is reported as t*nominal/ref. The kernel uses no
// code of the repository, so a change to the program moves the scaled
// timings exactly as it moves the raw ones.

// refKind picks the variant of the reference kernel a workload is
// scaled by. Over an hour of drift, count and count-obs tracked a
// user-space kernel with a small working set, and lease and sort one
// with a larger working set and system calls; each variant cut the
// run-to-run spread of its workloads' throughput three- to sixfold.
type refKind int

const (
	refCompute refKind = iota // count, count-obs
	refMixed                  // lease, sort
)

// refNominal is each variant's time on the 2-vCPU Xeon host the
// benchmark was sized on, when that host was quiet: with it, runs made
// while the host was slow scaled to within 3% of the quiet host's raw
// figures. It is part of the benchmark's definition: changing it
// rescales every timing metric.
var refNominal = [...]time.Duration{
	refCompute: 100 * time.Microsecond,
	refMixed:   200 * time.Microsecond,
}

// refTable is the kernel's working set.
var (
	refTable [1 << 15]uint64
	refSink  uint64
)

// hostRef times the reference kernel of kind. Its user-space part is
// 16384 steps of integer mixing, a store and an atomic add; the stores
// stay in 4 KiB (L1) for refCompute, like the counting network's small
// state, and spread over the 256 KiB refTable (L2) for refMixed, like
// the sort batches and HTTP buffers. refMixed adds 1024 getpid calls.
func hostRef(kind refKind) time.Duration {
	var ctr atomic.Int64
	mask := uint64(len(refTable)) - 1
	if kind == refCompute {
		mask = 4096/8 - 1
	}
	x := uint64(88172645463325252)
	t := time.Now()
	for i := 0; i < 1<<14; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refTable[x&mask] += x
		ctr.Add(1)
	}
	d := time.Since(t)
	if kind == refMixed {
		t = time.Now()
		for i := 0; i < 1<<10; i++ {
			x += uint64(syscall.Getpid())
		}
		d += time.Since(t)
	}
	refSink += x + uint64(ctr.Load())
	return d
}

// summarize reduces rounds to the end-to-end metrics, each the median
// over rounds of the per-round value, with every timing scaled to the
// nominal host speed (see refNominal). raw holds the same medians
// unscaled, and the reference kernel's median time as host_ref_us.
func summarize(rounds []roundStats, kind refKind) (scaled, raw map[string]float64) {
	per, perRaw := map[string][]float64{}, map[string][]float64{}
	for _, st := range rounds {
		if st.ops == 0 || st.window <= 0 || st.ref <= 0 {
			continue
		}
		k := float64(refNominal[kind]) / float64(st.ref) // above 1 on a fast host, below on a slow one
		add := func(name string, v, scale float64) {
			perRaw[name] = append(perRaw[name], v)
			per[name] = append(per[name], v*scale)
		}
		add("ops_per_s", float64(st.ops)/st.window.Seconds(), 1/k)
		add("op_p50_us", st.p50, k)
		add("op_p90_us", st.p90, k)
		add("cpu_us_per_op", float64(st.cpu.Nanoseconds())/1e3/float64(st.ops), k)
		add("heap_mb", st.heapMB, 1)
		add("setup_s", st.setup.Seconds(), k)
		perRaw["host_ref_us"] = append(perRaw["host_ref_us"], float64(st.ref.Nanoseconds())/1e3)
	}
	scaled, raw = map[string]float64{}, map[string]float64{}
	for name, v := range per {
		scaled[name] = median(v)
	}
	for name, v := range perRaw {
		raw[name] = median(v)
	}
	return scaled, raw
}

// span is one traced call made by the benchmark into the program.
type span struct {
	Name  string `json:"name"`
	Op    int64  `json:"op"`       // op id: value, lease or batch index, or rep
	Start int64  `json:"start_ns"` // since the recorder's epoch
	End   int64  `json:"end_ns"`
}

// maxSpans bounds the recorder's memory; spans beyond it are counted
// as dropped.
const maxSpans = 1 << 20

// recorder keeps spans in memory until the run ends. Issuing
// goroutines collect into private slices and hand them over once
// their window has closed, so the timed loops take no lock.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	room := maxSpans - len(r.spans)
	if room < len(s) {
		r.dropped += len(s) - room
		s = s[:room]
	}
	r.spans = append(r.spans, s...)
}

// write stores the spans as JSON lines, creating path's directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
