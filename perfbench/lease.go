package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"countnet/internal/core"
	"countnet/internal/harness"
	"countnet/internal/harness/syncsrv"
)

// The lease workload: an in-process syncsrv.Server on 127.0.0.1 over
// NewHub(L(2,4)) (width 8, as in the scenarios), with issuers
// registered workers, each a goroutine leasing leaseSize values at a
// time through one shared syncsrv.Client in a closed loop. The client
// keeps at most one connection per issuer.

const leaseSize = 4

type leaseRun struct {
	perW    int      // leases each worker takes per round
	workers []string // worker ids, from the seed
	got     [][]int64
	lat     [][]float64
	sp      [][]span
}

func newLeaseRun(seed int64, scale int) *leaseRun {
	rng := rand.New(rand.NewSource(seed))
	l := &leaseRun{perW: 4000 / scale}
	for g := 0; g < issuers; g++ {
		l.workers = append(l.workers, fmt.Sprintf("w%d-%08x", g, rng.Uint32()))
		l.got = append(l.got, make([]int64, 0, l.perW*leaseSize))
		l.lat = append(l.lat, make([]float64, 0, l.perW))
		l.sp = append(l.sp, make([]span, 0, l.perW))
	}
	return l
}

func (l *leaseRun) round(r int, rec *recorder) roundStats {
	var st roundStats
	t0 := startSetup()
	net, err := core.L(2, 4)
	if err != nil {
		st.err = err
		return st
	}
	hub := syncsrv.NewHub(net)
	srv := syncsrv.NewServer(hub)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		st.err = fmt.Errorf("lease: start server: %w", err)
		return st
	}
	defer stopServer(srv)
	cl := syncsrv.NewClient(srv.URL())
	for _, w := range l.workers {
		if _, err := cl.Register(w); err != nil {
			st.err = fmt.Errorf("lease: register %s: %w", w, err)
			return st
		}
	}
	st.setup = time.Since(t0)

	w := openWindow()
	failed := l.drawLeases(cl, r, rec)
	w.close(&st, int64(issuers*l.perW))
	runtime.KeepAlive(hub)

	st.failed = failed
	width, issued, err := cl.Draws()
	if err != nil {
		st.err = fmt.Errorf("lease: fetch issue log: %w", err)
		return st
	}
	if st.err = checkLeases(width, issued, l.workers, l.got); st.err != nil {
		st.failed++
	}
	st.setLatency(slices.Concat(l.lat...))
	if rec != nil {
		for _, s := range l.sp {
			rec.add(s)
		}
	}
	return st
}

// drawLeases runs one closed-loop window and returns the number of
// draws that failed.
func (l *leaseRun) drawLeases(cl *syncsrv.Client, r int, rec *recorder) int64 {
	bad := make([]int64, issuers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range l.workers {
		l.got[g] = l.got[g][:0]
		l.lat[g] = l.lat[g][:0]
		l.sp[g] = l.sp[g][:0]
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < l.perW; i++ {
				s := time.Now()
				vals, err := cl.Draw(l.workers[g], leaseSize)
				e := time.Now()
				if err != nil || len(vals) != leaseSize {
					bad[g]++
					continue
				}
				l.got[g] = append(l.got[g], vals...)
				l.lat[g] = append(l.lat[g], float64(e.Sub(s).Nanoseconds())/1e3)
				if rec != nil {
					op := int64((r*issuers+g)*l.perW + i)
					l.sp[g] = append(l.sp[g], span{Name: "syncsrv.Client.Draw", Op: op, Start: rec.since(s), End: rec.since(e)})
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	var failed int64
	for _, b := range bad {
		failed += b
	}
	return failed
}

// checkLeases is the lease oracle: harness.CheckRun over the server's
// issue log and what each worker received, with no worker lost — so
// the log must be exactly 0..N-1 with the step property, and every
// worker must have received exactly what the log says it was issued.
func checkLeases(width int, issued map[string][]int64, workers []string, got [][]int64) error {
	reported := make(map[string][]int64, len(workers))
	for g, w := range workers {
		reported[w] = got[g]
	}
	if err := harness.CheckRun(width, issued, reported, nil); err != nil {
		return fmt.Errorf("lease oracle: %w", err)
	}
	return nil
}

// stopServer shuts the round's server down and drops the client's idle
// connections to it, so no connection or handler outlives its round.
func stopServer(srv *syncsrv.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // every draw has returned, so there is nothing left to drain
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}
