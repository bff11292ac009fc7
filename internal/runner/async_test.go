package runner

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"countnet/internal/network"
	"countnet/internal/seq"
)

// counting4 builds the 4-wire bitonic counting network.
func counting4() *network.Network {
	b := network.NewBuilder(4)
	b.Add([]int{0, 1}, "")
	b.Add([]int{2, 3}, "")
	b.Add([]int{0, 3}, "")
	b.Add([]int{1, 2}, "")
	b.Add([]int{0, 1}, "")
	b.Add([]int{2, 3}, "")
	return b.Build("count4", nil)
}

func TestTraverseMatchesSerialSimulation(t *testing.T) {
	n := counting4()
	a := Compile(n)
	tokens := []int{0, 1, 2, 3, 0, 0, 2, 1, 3, 3, 3}
	want, _ := RunTokens(n, tokens, nil)
	for i, entry := range tokens {
		got := a.Traverse(entry)
		if got != want.Exits[i] {
			t.Fatalf("token %d (wire %d): exit %d, want %d", i, entry, got, want.Exits[i])
		}
	}
}

func TestTraverseMutexMatchesAtomicSequentially(t *testing.T) {
	n := counting4()
	a1 := Compile(n)
	a2 := Compile(n)
	for i := 0; i < 40; i++ {
		w := i % 4
		if g1, g2 := a1.Traverse(w), a2.TraverseMutex(w); g1 != g2 {
			t.Fatalf("token %d: atomic exit %d, mutex exit %d", i, g1, g2)
		}
	}
}

func TestExitCountsStepProperty(t *testing.T) {
	a := Compile(counting4())
	counts := a.ExitCounts(250, 8)
	if !seq.IsStep(counts) {
		t.Fatalf("concurrent exit counts %v lack step property", counts)
	}
	if seq.Sum(counts) != 1000 {
		t.Fatalf("token loss: %v", counts)
	}
}

func TestConcurrentTraversalQuiescentCounts(t *testing.T) {
	// Fire a known token multiset from many goroutines; at quiescence
	// the exit distribution must equal the deterministic transfer.
	n := counting4()
	a := Compile(n)
	perWire := 123
	in := []int64{int64(perWire), int64(perWire), int64(perWire), int64(perWire)}
	want := ApplyTokens(n, in)

	var mu sync.Mutex
	got := make([]int64, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := make([]int64, 4)
			for k := g; k < 4*perWire; k += 8 {
				local[a.Traverse(k%4)]++
			}
			mu.Lock()
			for i, v := range local {
				got[i] += v
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent quiescent counts %v, want %v", got, want)
	}
}

func TestConcurrentMutexTraversal(t *testing.T) {
	a := Compile(counting4())
	var wg sync.WaitGroup
	counts := make([]int64, 4)
	var mu sync.Mutex
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := make([]int64, 4)
			for k := 0; k < 300; k++ {
				local[a.TraverseMutex((g+k)%4)]++
			}
			mu.Lock()
			for i, v := range local {
				counts[i] += v
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if !seq.IsStep(counts) {
		t.Fatalf("mutex-balancer exit counts %v lack step property", counts)
	}
}

func TestReset(t *testing.T) {
	a := Compile(counting4())
	first := a.Traverse(0)
	a.Traverse(1)
	a.Traverse(2)
	a.Reset()
	if got := a.Traverse(0); got != first {
		t.Errorf("after Reset, first token exits %d, want %d", got, first)
	}
}

func TestTraversePanicsOnBadWire(t *testing.T) {
	a := Compile(counting4())
	for _, w := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Traverse(%d) did not panic", w)
				}
			}()
			a.Traverse(w)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TraverseMutex(-1) did not panic")
			}
		}()
		a.TraverseMutex(-1)
	}()
}

func TestCompileGatelessNetwork(t *testing.T) {
	n := network.NewBuilder(3).Build("empty", []int{2, 0, 1})
	a := Compile(n)
	if a.Width() != 3 {
		t.Fatalf("width %d", a.Width())
	}
	// Tokens pass straight through; exits follow the output order.
	if a.Traverse(2) != 0 || a.Traverse(0) != 1 || a.Traverse(1) != 2 {
		t.Error("gateless traversal should map wires by output order")
	}
}

func TestExitCountsSingleWorkerDeterministic(t *testing.T) {
	n := counting4()
	want := ApplyTokens(n, []int64{5, 5, 5, 5})
	a := Compile(n)
	got := a.ExitCounts(5, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-worker ExitCounts %v, want %v", got, want)
	}
}

// TestAsyncHotIsolation pins the layout contract of asyncHot: each
// gate's contended state must start a fresh 128-byte element, so no
// two counters can share a cache line (or an adjacent-line prefetch
// pair) whatever the slice's base alignment.
func TestAsyncHotIsolation(t *testing.T) {
	size := unsafe.Sizeof(asyncHot{})
	if size != 128 {
		t.Fatalf("asyncHot is %d bytes, want exactly 128", size)
	}
	if off := unsafe.Offsetof(asyncHot{}.count); off != 0 {
		t.Fatalf("count at offset %d, want 0", off)
	}
	var hs [2]asyncHot
	delta := uintptr(unsafe.Pointer(&hs[1].count)) - uintptr(unsafe.Pointer(&hs[0].count))
	if delta < 128 {
		t.Fatalf("adjacent counters %d bytes apart, want >= 128", delta)
	}
}
