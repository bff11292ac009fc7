package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"countnet"
)

// short runs each workload with per-round work divided by 64 and a
// single round, enough to exercise every code path quickly.
func short(t *testing.T, trace bool) config {
	return config{seed: 7, trace: trace, spans: filepath.Join(t.TempDir(), "spans.jsonl"), scale: 64, minRounds: 1}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func TestShortModeEmitsEveryMetric(t *testing.T) {
	for _, d := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := runWorkload(d, short(t, trace), &bytes.Buffer{})
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d err=%v", d.name, trace, res.Correct, res.Attempted, res.Failed, err)
			}
			var got []string
			for k, v := range res.Metrics {
				got = append(got, k)
				if v.Value <= 0 && !strings.HasSuffix(k, "self") && k != "syncsrv.issue_log_bytes_per_value" && k != "go.allocs_per_op" {
					t.Errorf("%s trace=%v: %s = %v", d.name, trace, k, v.Value)
				}
			}
			sort.Strings(got)
			if !slices.Equal(got, metricNames(want)) {
				t.Errorf("%s trace=%v: metrics %v, want %v", d.name, trace, got, metricNames(want))
			}
		}
	}
}

func TestResultLineAndUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	if code := run([]string{"--workload", "sort", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("sort run: exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result keys %v", keys)
	}
	if !strings.Contains(lines[0], `"provenance"`) || !strings.Contains(lines[0], `"gomaxprocs"`) {
		t.Errorf("first line is not the provenance block: %s", lines[0])
	}
}

// TestDeclaredMetricsMatch keeps BENCHMARK.json and the metric and
// workload tables in this package identical.
func TestDeclaredMetricsMatch(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d workloads, %d end-to-end and %d per-layer metrics; the code %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %+v, code %q %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: json %+v, code %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: json %+v, code %+v", i, m, d)
		}
	}
}

// stubCounter hands out 0, 1, 2, ... from one shared word, except that
// with skip >= 0 it never returns skip, and with repeat >= 0 it returns
// repeat a second time in place of repeat+1.
type stubCounter struct {
	next         atomic.Int64
	skip, repeat int64
}

func (s *stubCounter) Next() int64 {
	v := s.next.Add(1) - 1
	switch {
	case s.skip >= 0 && v >= s.skip:
		return v + 1
	case s.repeat >= 0 && v == s.repeat+1:
		return s.repeat
	}
	return v
}

func TestCountOracle(t *testing.T) {
	const perG = 4096
	for _, tc := range []struct {
		name         string
		skip, repeat int64
		ok           bool
	}{
		{"exact", -1, -1, true},
		{"skips a value", 777, -1, false},
		{"repeats a value", -1, 1234, false},
	} {
		stub := &stubCounter{skip: tc.skip, repeat: tc.repeat}
		n := int64(issuers * perG)
		var seen []bitmap
		lat, sp := make([][]float64, issuers), make([][]span, issuers)
		srcs := make([]valueSource, issuers)
		for g := range srcs {
			seen = append(seen, newBitmap(n))
			srcs[g] = stub
		}
		bad := drawValues(srcs, perG, seen, lat, sp, nil)
		failed, err := checkCounts(seen, n, bad)
		if tc.ok != (err == nil) || tc.ok != (failed == 0) {
			t.Errorf("%s: failed=%d err=%v", tc.name, failed, err)
		}
	}
}

func TestObsOracle(t *testing.T) {
	net, err := countnet.NewL(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const group = "perfbench.test"
	h := countnet.NewCounter(net, countnet.WithObservability(group)).Handle(0)
	for i := 0; i < 100; i++ {
		h.Next()
	}
	if err := checkObsTotal(group, 100); err != nil {
		t.Errorf("matching total rejected: %v", err)
	}
	if err := checkObsTotal(group, 101); err == nil {
		t.Error("snapshot missing a value accepted")
	}
}

func TestLeaseOracle(t *testing.T) {
	workers := []string{"a", "b"}
	for _, tc := range []struct {
		name   string
		issued map[string][]int64
		got    [][]int64
		ok     bool
	}{
		{"exact", map[string][]int64{"a": {0, 1, 2, 3}, "b": {4, 5, 6, 7}}, [][]int64{{0, 1, 2, 3}, {4, 5, 6, 7}}, true},
		{"issue log with a gap", map[string][]int64{"a": {0, 1, 2, 3}, "b": {5, 6, 7, 8}}, [][]int64{{0, 1, 2, 3}, {5, 6, 7, 8}}, false},
		{"value never delivered", map[string][]int64{"a": {0, 1, 2, 3}, "b": {4, 5, 6, 7}}, [][]int64{{0, 1, 2, 3}, {4, 5, 6}}, false},
		{"value delivered to the wrong worker", map[string][]int64{"a": {0, 1, 2, 3}, "b": {4, 5, 6, 7}}, [][]int64{{0, 1, 2, 4}, {3, 5, 6, 7}}, false},
	} {
		if err := checkLeases(8, tc.issued, workers, tc.got); tc.ok != (err == nil) {
			t.Errorf("%s: err=%v", tc.name, err)
		}
	}
}

// stubStream sorts every batch ascending, except that it passes batch
// bad through unsorted and, with drop, overwrites one value of it.
func stubStream(bad int, drop bool) streamFunc {
	return func(in <-chan []int64) <-chan []int64 {
		out := make(chan []int64)
		go func() {
			defer close(out)
			i := 0
			for b := range in {
				c := slices.Clone(b)
				if i != bad {
					slices.Sort(c)
				} else if drop {
					slices.Sort(c)
					c[0] = c[1]
				}
				i++
				out <- c
			}
		}()
		return out
	}
}

func TestSortOracle(t *testing.T) {
	const n = 64
	in, want := slab(n, sortWidth), slab(n, sortWidth)
	for _, tc := range []struct {
		name string
		fn   streamFunc
		ok   bool
	}{
		{"sorts", stubStream(-1, false), true},
		{"leaves a batch unsorted", stubStream(5, false), false},
		{"loses a value", stubStream(5, true), false},
	} {
		genBatches(1, 0, in, want)
		// The warm-up batch is the stub's batch 0; bad batches are later.
		ss, err := startStreams([]streamFunc{stubStream(-1, false), tc.fn}, want[0], true)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]int64, n)
		ss.run(in, out, make([]time.Time, n))
		failed, err := checkBatches(out, want)
		if tc.ok != (err == nil) || tc.ok != (failed == 0) {
			t.Errorf("%s: failed=%d err=%v", tc.name, failed, err)
		}
	}
}
