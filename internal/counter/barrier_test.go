package counter

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countnet/internal/core"
)

func barrierCounter(t *testing.T) Counter {
	t.Helper()
	n, err := core.L(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewNetworkCounter(n, false)
}

// await is Barrier.Await for barriers that are never closed.
func await(b *Barrier) int64 {
	gen, err := b.Await()
	if err != nil {
		panic(err)
	}
	return gen
}

// TestBarrierPhases: no party enters phase k+1 before every party
// finished phase k — the barrier contract — across many generations.
func TestBarrierPhases(t *testing.T) {
	const parties, generations = 6, 40
	b := NewBarrier(parties, barrierCounter(t))
	var phaseCount [generations]atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				phaseCount[g].Add(1)
				gen, err := b.Await()
				if err != nil || gen != int64(g) {
					t.Errorf("party saw generation %d (err %v) in phase %d", gen, err, g)
					return
				}
				// After the barrier, every party must have entered
				// this phase.
				if got := phaseCount[g].Load(); got != parties {
					t.Errorf("phase %d released with %d/%d arrivals", g, got, parties)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBarrierBlocksUntilFull: early arrivals park.
func TestBarrierBlocksUntilFull(t *testing.T) {
	b := NewBarrier(3, NewAtomicCounter())
	released := make(chan int64, 3)
	for i := 0; i < 2; i++ {
		go func() { released <- await(b) }()
	}
	select {
	case g := <-released:
		t.Fatalf("released generation %d with 2/3 arrivals", g)
	case <-time.After(20 * time.Millisecond):
	}
	go func() { released <- await(b) }()
	for i := 0; i < 3; i++ {
		select {
		case g := <-released:
			if g != 0 {
				t.Fatalf("generation %d, want 0", g)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("barrier never released")
		}
	}
}

// TestBarrierSingleParty: degenerate n=1 never blocks.
func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1, NewAtomicCounter())
	for g := int64(0); g < 5; g++ {
		if got := await(b); got != g {
			t.Fatalf("generation %d, want %d", got, g)
		}
	}
}

func TestBarrierRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(0, NewAtomicCounter())
}

// TestBarrierHandles: the phases contract holds when every party draws
// arrival tickets through a private barrier handle, and handles unwrap
// to counter handles when the counter supports them.
func TestBarrierHandles(t *testing.T) {
	const parties, generations = 5, 30
	b := NewBarrier(parties, barrierCounter(t))
	var phaseCount [generations]atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := b.Handle(p)
			for g := 0; g < generations; g++ {
				phaseCount[g].Add(1)
				gen, err := h.Await()
				if err != nil || gen != int64(g) {
					t.Errorf("party saw generation %d (err %v) in phase %d", gen, err, g)
					return
				}
				if got := phaseCount[g].Load(); got != parties {
					t.Errorf("phase %d released with %d/%d arrivals", g, got, parties)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// TestBarrierHandlePlainCounter: Handle over a counter without handle
// support falls back to the shared counter.
func TestBarrierHandlePlainCounter(t *testing.T) {
	b := NewBarrier(1, NewMutexCounter())
	h := b.Handle(0)
	for g := int64(0); g < 5; g++ {
		if got, err := h.Await(); err != nil || got != g {
			t.Fatalf("generation %d, want %d", got, g)
		}
	}
}

// TestBarrierCloseReleasesWaiters: Close fails a parked arrival and
// every later arrival that would wait, but an arrival that completes a
// generation still succeeds.
func TestBarrierCloseReleasesWaiters(t *testing.T) {
	b := NewBarrier(2, barrierCounter(t))
	errc := make(chan error, 1)
	go func() {
		_, err := b.Await()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it park
	b.Close()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("waiter after Close: err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released by Close")
	}
	// The parked arrival counted: the next one completes generation 0.
	if gen, err := b.Await(); err != nil || gen != 0 {
		t.Fatalf("completing arrival after Close: gen %d, err %v", gen, err)
	}
	if _, err := b.Await(); err == nil {
		t.Fatal("waiting arrival after Close succeeded")
	}
}

// skipCounter issues 0, 1, ... but jumps over skip.
type skipCounter struct {
	next, skip int64
}

func (c *skipCounter) Next() int64 {
	if c.next == c.skip {
		c.next++
	}
	c.next++
	return c.next - 1
}

// TestBarrierQuiesceRejectsSkippedTicket: the gap-free oracle behind
// Hub.Quiesce can fail — a ticket counter that skips a value is caught
// once the barrier is at rest, and a sound one passes.
func TestBarrierQuiesceRejectsSkippedTicket(t *testing.T) {
	good := NewBarrier(1, barrierCounter(t))
	for i := 0; i < 5; i++ {
		await(good)
	}
	if err := good.Quiesce(); err != nil {
		t.Fatalf("sound ticket counter: %v", err)
	}
	bad := NewBarrier(1, &skipCounter{skip: 2})
	for i := 0; i < 5; i++ {
		await(bad)
	}
	if err := bad.Quiesce(); err == nil || !strings.Contains(err.Error(), "gap-free") {
		t.Fatalf("ticket counter skipping 2: Quiesce err = %v, want a gap-free failure", err)
	}
}
