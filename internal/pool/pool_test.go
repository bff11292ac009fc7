package pool

import (
	"sync"
	"testing"
	"time"

	"countnet/internal/core"
	"countnet/internal/network"
)

func testNet(t *testing.T) *network.Network {
	t.Helper()
	n, err := core.L(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPoolExactlyOnce: every item put is got exactly once, under full
// producer/consumer concurrency.
func TestPoolExactlyOnce(t *testing.T) {
	p := New[int](testNet(t))
	const producers, consumers, perProducer = 4, 4, 2000
	total := producers * perProducer

	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := p.Handle(g)
			for i := 0; i < perProducer; i++ {
				h.Put(g*perProducer + i)
			}
		}(g)
	}
	got := make([][]int, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := p.Handle(producers + c)
			for i := 0; i < total/consumers; i++ {
				got[c] = append(got[c], h.Get())
			}
		}(c)
	}
	wg.Wait()

	seen := make([]bool, total)
	for _, vs := range got {
		for _, v := range vs {
			if v < 0 || v >= total {
				t.Fatalf("unknown item %d", v)
			}
			if seen[v] {
				t.Fatalf("item %d delivered twice", v)
			}
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("item %d lost", v)
		}
	}
	if p.Len() != 0 {
		t.Errorf("pool should be empty, Len = %d", p.Len())
	}
}

// TestPoolGetBlocksUntilPut: a Get issued first parks until an item
// arrives.
func TestPoolGetBlocksUntilPut(t *testing.T) {
	p := New[string](testNet(t))
	done := make(chan string)
	go func() {
		done <- p.Get()
	}()
	select {
	case v := <-done:
		t.Fatalf("Get returned %q before any Put", v)
	case <-time.After(20 * time.Millisecond):
	}
	p.Put("hello")
	select {
	case v := <-done:
		if v != "hello" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never woke up")
	}
}

// TestPoolSequential: single-threaded FIFO-ish behaviour sanity (the
// pool is unordered, but with one producer and one consumer using the
// shared dispatchers, buffers and ranks align and items round-trip).
func TestPoolSequential(t *testing.T) {
	p := New[int](testNet(t))
	for i := 0; i < 100; i++ {
		p.Put(i)
	}
	if p.Len() != 100 {
		t.Fatalf("Len = %d", p.Len())
	}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		v := p.Get()
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 || p.Len() != 0 {
		t.Fatalf("round trip incomplete: %d items, Len %d", len(seen), p.Len())
	}
}

// TestPoolManyMoreGettersQueued: several blocked getters all wake as
// puts trickle in.
func TestPoolManyMoreGettersQueued(t *testing.T) {
	p := New[int](testNet(t))
	const n = 32
	results := make(chan int, n)
	for c := 0; c < n; c++ {
		go func(c int) {
			h := p.Handle(c)
			results <- h.Get()
		}(c)
	}
	time.Sleep(10 * time.Millisecond)
	h := p.Handle(99)
	for i := 0; i < n; i++ {
		h.Put(i)
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		select {
		case v := <-results:
			if seen[v] {
				t.Fatalf("duplicate %d", v)
			}
			seen[v] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d getters woke", i, n)
		}
	}
}

// TestPoolMemoryTracksOutstandingItems: a long run with at most one item
// outstanding must leave every buffer's queue small — the queue holds
// outstanding items, not the history of every item moved.
func TestPoolMemoryTracksOutstandingItems(t *testing.T) {
	p := New[int](testNet(t))
	h := p.Handle(0)
	for i := 0; i < 1<<20; i++ {
		h.Put(i)
		if got := h.Get(); got != i {
			t.Fatalf("pair %d: got item %d", i, got)
		}
	}
	if n := p.Len(); n != 0 {
		t.Fatalf("Len = %d after balanced pairs", n)
	}
	for i := range p.bufs {
		if c := cap(p.bufs[i].items); c > 4 {
			t.Errorf("buffer %d: queue capacity %d after 1<<20 pairs with one item outstanding", i, c)
		}
	}
}

// TestPoolOutOfOrderTakes: takes in reverse rank order leave the queue
// intact until the lowest rank goes, and Len stays exact throughout.
func TestPoolOutOfOrderTakes(t *testing.T) {
	p := New[int](testNet(t))
	w := p.width
	const perBuf = 5
	for i := 0; i < perBuf*w; i++ {
		p.putAt(int64(i), i)
	}
	left := perBuf * w
	for rank := perBuf - 1; rank >= 0; rank-- {
		for b := 0; b < w; b++ {
			v := int64(rank*w + b)
			if got := p.getAt(v); got != int(v) {
				t.Fatalf("rank %d buffer %d: got %d, want %d", rank, b, got, v)
			}
			left--
			if n := p.Len(); n != left {
				t.Fatalf("Len = %d, want %d", n, left)
			}
		}
	}
	for i := range p.bufs {
		if b := &p.bufs[i]; len(b.items) != 0 || b.base != perBuf {
			t.Errorf("buffer %d: %d queued, base %d after taking every rank", i, len(b.items), b.base)
		}
	}
}
