// Command perfbench is the repository benchmark. It runs closed-loop
// workloads against the public functions of the counting, lease and
// sorting paths in one process, checks every output with an oracle,
// and prints the end-to-end metrics (--trace 0) or, from a separate
// traced run, the per-layer ladder (--trace 1). The last line of its
// output is one JSON object: correct, attempted, failed, metrics.
//
//	bash perfbench/run.sh --workload count --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, metrics and the
// layer-to-end-to-end prediction table.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workloadDef names a workload, records why it is in the benchmark and
// builds its round function from the seed.
type workloadDef struct {
	name string
	why  string
	ref  refKind // the reference its timings are scaled by
	run  func(seed int64, scale int) roundFunc
}

var workloads = []workloadDef{
	{"count", "per-token Async.Traverse and counter do the work on L(4,4) with 2 issuers; obs off, so hot-path changes show here alone", refCompute,
		func(seed int64, scale int) roundFunc { return newCountRun(false, seed, scale).round }},
	{"count-obs", "count with the counter built WithObservability: against count it is the obs layer's on/off cost", refCompute,
		func(seed int64, scale int) roundFunc { return newCountRun(true, seed, scale).round }},
	{"lease", "syncsrv Client.Draw of 4 values over loopback HTTP to a Hub on L(2,4): transport, hub and combining TraverseBatch", refMixed,
		func(seed int64, scale int) roundFunc { return newLeaseRun(seed, scale).round }},
	{"sort", "SortStream alternating L(4,4,4) (4-wide gates) and K(4,4,4) (up to 16-wide) at width 64: pipeline and gate kernels", refMixed,
		func(seed int64, scale int) roundFunc { return newSortRun(seed, scale).round }},
}

// procs is the GOMAXPROCS every run uses. With two Ps on a shared
// 2-vCPU host, the issuers' cross-core cache-line traffic and wake-ups
// measure where the host placed the vCPUs: the same count code ran at
// 3.4 M and 10.8 M values/s minutes apart. With one P the issuers still
// interleave on the same structures, and a run's figures repeat.
const procs = 1

// config is one invocation's settings.
type config struct {
	seed      int64
	budget    time.Duration // measurement time per workload
	trace     bool
	spans     string // traced run's span file; empty picks .bench_build/perfbench/spans-<workload>-<seed>.jsonl
	scale     int    // divides per-round work; 1 except in self-tests
	minRounds int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	workload := fset.String("workload", "", "count | count-obs | lease | sort | all")
	seed := fset.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fset.Int("seconds", 10, "measurement time per workload, seconds")
	trace := fset.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var defs []workloadDef
	for _, d := range workloads {
		if *workload == d.name || *workload == "all" {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || fset.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (count, count-obs, lease, sort or all), --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1, scale: 1, minRounds: 3}
	runtime.GOMAXPROCS(procs)

	prov, err := json.Marshal(map[string]any{"provenance": provenanceOf(*workload, *seed)})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(prov))

	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res, err := runWorkload(d, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", d.name, err)
		}
		if len(defs) == 1 {
			total = res
			break
		}
		line, _ := json.Marshal(map[string]any{"workload": d.name, "result": res}) // strings and numbers always marshal
		fmt.Fprintln(stdout, string(line))
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[d.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// runWorkload makes one timed or traced run of d. A non-nil error
// comes with Correct false.
func runWorkload(d workloadDef, cfg config, out io.Writer) (result, error) {
	res := result{Correct: true}
	fn := d.run(cfg.seed, cfg.scale)
	if !cfg.trace {
		rounds := runRounds(fn, d.ref, cfg.budget, cfg.minRounds, nil)
		err := tally(&res, rounds)
		scaled, raw := summarize(rounds, d.ref)
		if ferr := res.fill(endToEnd, scaled); err == nil {
			err = ferr
		}
		res.Correct = res.Correct && err == nil
		printTable(out, d.name+": end-to-end, median over "+fmt.Sprint(len(rounds))+" rounds, timings scaled to the nominal host speed", endToEnd, &res)
		printRaw(out, raw, d.ref)
		return res, err
	}

	// Traced run: the workload's own op, alternating untraced and
	// traced rounds so both see the same host conditions, then the
	// layer ladder.
	rec := newRecorder()
	own := cfg.budget * 2 / 5
	var plain, traced []roundStats
	start := time.Now()
	for r := 0; r < 2*cfg.minRounds || time.Since(start) < own; r++ {
		if r%2 == 0 {
			plain = append(plain, fn(r, nil))
		} else {
			traced = append(traced, fn(r, rec))
		}
	}
	err := tally(&res, slices.Concat(plain, traced))
	vals := ownOpMetrics(plain, traced)
	lad, lerr := newLadder(cfg.seed, cfg.scale).measure(cfg.budget-time.Since(start), rec, out)
	if err == nil {
		err = lerr
	}
	for k, v := range lad {
		vals[k] = v
	}
	if ferr := res.fill(perLayer, vals); err == nil {
		err = ferr
	}
	path := cfg.spans
	if path == "" {
		path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", d.name, cfg.seed))
	}
	if werr := rec.write(path); err == nil {
		err = werr
	}
	fmt.Fprintf(out, "# %d spans written to %s (%d dropped)\n", len(rec.spans), path, rec.dropped)
	res.Correct = res.Correct && err == nil
	printTable(out, d.name+": per-layer, traced run", perLayer, &res)
	return res, err
}

// ownOpMetrics derives the traced run's own-op metrics: tail latency
// and Go runtime costs from the untraced rounds, and the tracing
// overhead as the traced rounds' median time per op over the untraced
// rounds'.
func ownOpMetrics(plain, traced []roundStats) map[string]float64 {
	per := map[string][]float64{}
	for _, st := range plain {
		if st.ops == 0 || st.window <= 0 {
			continue
		}
		ops := float64(st.ops)
		per["op_p99_us"] = append(per["op_p99_us"], st.p99)
		per["go.allocs_per_op"] = append(per["go.allocs_per_op"], float64(st.mallocs)/ops)
		per["go.bytes_per_op"] = append(per["go.bytes_per_op"], float64(st.allocBytes)/ops)
		per["go.gc_per_s"] = append(per["go.gc_per_s"], float64(st.numGC)/st.window.Seconds())
		per["go.gc_pause_ms"] = append(per["go.gc_pause_ms"], float64(st.gcPause.Nanoseconds())/1e6)
		per["plain_ns"] = append(per["plain_ns"], float64(st.window.Nanoseconds())/ops)
	}
	for _, st := range traced {
		if st.ops > 0 {
			per["traced_ns"] = append(per["traced_ns"], float64(st.window.Nanoseconds())/float64(st.ops))
		}
	}
	vals := map[string]float64{}
	for k, v := range per {
		vals[k] = median(v)
	}
	vals["trace.overhead_ratio"] = vals["traced_ns"] / vals["plain_ns"]
	delete(vals, "plain_ns")
	delete(vals, "traced_ns")
	return vals
}

// provenanceOf describes the host, toolchain and source a run measured.
func provenanceOf(workload string, seed int64) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"cpu":           cpuModel(),
		"go_version":    runtime.Version(),
		"git_commit":    commit,
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies its code even where the checkout is not a git
// repository. Hidden directories (build outputs, VCS data) are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
