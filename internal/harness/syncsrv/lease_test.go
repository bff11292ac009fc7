package syncsrv_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countnet/internal/core"
	"countnet/internal/harness"
	"countnet/internal/harness/syncsrv"
)

// TestHubDrawCombines: concurrent Hub.Draw calls go through combining
// handles from the hub's free list. The issue log and what each worker
// received must pass the cross-process oracle with no slack, and the
// free list never holds more handles than draws ever ran at once.
func TestHubDrawCombines(t *testing.T) {
	const goroutines, draws, n = 8, 500, 3
	net, err := core.L(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := syncsrv.NewHub(net)
	defer h.Close()

	got := make(map[string][]int64, goroutines)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		w := fmt.Sprintf("w%d", g)
		if _, err := h.Register(w); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int64
			for i := 0; i < draws; i++ {
				vals, err := h.Draw(w, n)
				if err != nil {
					t.Errorf("%s: %v", w, err)
					return
				}
				mine = append(mine, vals...)
				if k := syncsrv.FreeHandles(h); k > goroutines {
					t.Errorf("free list holds %d handles with %d drawing goroutines", k, goroutines)
					return
				}
			}
			mu.Lock()
			got[w] = mine
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := harness.CheckRun(h.Width(), h.IssueLog(), got, nil); err != nil {
		t.Fatal(err)
	}
	if k := syncsrv.FreeHandles(h); k < 1 || k > goroutines {
		t.Fatalf("free list holds %d handles after the run, want 1..%d", k, goroutines)
	}
}

// TestDrawReconnects: goroutines share one Client while the server
// drops its draw channel mid-run. Draws in flight at the drop may fail;
// later ones dial a new channel. The oracle allows loss only to the
// workers whose draws failed, and at most the failed draws' values.
func TestDrawReconnects(t *testing.T) {
	const workers, draws, n = 4, 300, 2
	net, err := core.L(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	hub := syncsrv.NewHub(net)
	srv := syncsrv.NewServer(hub)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	c := syncsrv.NewClient(srv.URL())

	ids := make([]string, workers)
	got := make([][]int64, workers)
	failed := make([]int, workers)
	for g := range ids {
		ids[g] = fmt.Sprintf("w%d", g)
		if _, err := c.Register(ids[g]); err != nil {
			t.Fatal(err)
		}
	}
	var total atomic.Int64
	dropped := make(chan int, 1)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < draws; i++ {
				if total.Add(1) == workers*draws/3 {
					dropped <- syncsrv.DropDrawChannels(srv)
				}
				vals, err := c.Draw(ids[g], n)
				if err != nil {
					failed[g]++
					continue
				}
				got[g] = append(got[g], vals...)
			}
		}(g)
	}
	wg.Wait()
	if k := <-dropped; k != 1 {
		t.Fatalf("the drop closed %d channels, want the client's one", k)
	}

	// The channel is back: a fresh draw succeeds.
	vals, err := c.Draw(ids[0], n)
	if err != nil {
		t.Fatalf("draw after reconnect: %v", err)
	}
	got[0] = append(got[0], vals...)

	issued := hub.IssueLog()
	reported := make(map[string][]int64, workers)
	lost := map[string]bool{}
	errs := 0
	for g, w := range ids {
		reported[w] = got[g]
		errs += failed[g]
		if failed[g] > 0 {
			lost[w] = true
		}
		if miss := len(issued[w]) - len(got[g]); miss > failed[g]*n {
			t.Errorf("%s: %d issued values never arrived, but only %d draws of %d failed", w, miss, failed[g], n)
		}
	}
	if err := harness.CheckRun(net.Width(), issued, reported, lost); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d draws failed across the drop", errs, workers*draws)
}
