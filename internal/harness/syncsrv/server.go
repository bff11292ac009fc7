package syncsrv

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Server exposes a Hub over HTTP. Every endpoint but /drawchan speaks
// JSON; /barrier holds the request open until the barrier releases it,
// so workers wait instead of spinning.
//
//	POST /register?worker=W   -> {"workers":K} (409 on duplicate)
//	POST /barrier?state=S&n=N -> blocks; {"generation":G}
//	GET  /draws               -> {"width":W,"issued":{...}}
//	GET  /drawchan  (Upgrade: countnet-draw/1)
//	                          -> 101; then binary lease frames
//
// Leases (Hub.Draw) travel only over the upgraded draw channel, one
// connection per Client; its frame layout is documented with drawPath.
type Server struct {
	hub  *Hub
	http *http.Server
	lis  net.Listener

	mu     sync.Mutex
	closed bool                  // Shutdown has begun: refuse new channels
	chans  map[net.Conn]struct{} // upgraded draw channels, which http.Server does not track
	wg     sync.WaitGroup        // one per draw channel goroutine
}

// readHeaderTimeout bounds how long a client may take to send request
// headers, so a stalled client cannot hold a connection forever. There
// is deliberately no WriteTimeout: /barrier blocks by design.
const readHeaderTimeout = 10 * time.Second

// NewServer wraps the hub. Call Start to begin serving.
func NewServer(hub *Hub) *Server {
	s := &Server{hub: hub, chans: map[net.Conn]struct{}{}}
	mux := http.NewServeMux()
	mux.HandleFunc("/register", s.handleRegister)
	mux.HandleFunc("/barrier", s.handleBarrier)
	mux.HandleFunc("/draws", s.handleDraws)
	mux.HandleFunc(drawPath, s.handleDrawChan)
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	return s
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves in a background goroutine.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	go s.http.Serve(lis) //nolint:errcheck // always http.ErrServerClosed after Shutdown
	return nil
}

// Addr returns the listening address (host:port).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns the base URL clients should use.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown closes the hub (releasing blocked barrier handlers), closes
// every draw channel (failing the Draw calls pending on them), drains
// the HTTP server, and waits for the channel goroutines to exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.hub.Close()
	s.mu.Lock()
	s.closed = true
	for conn := range s.chans {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.http.Shutdown(ctx)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	n, err := s.hub.Register(r.URL.Query().Get("worker"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]int{"workers": n})
}

func (s *Server) handleBarrier(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	n, err := strconv.Atoi(q.Get("n"))
	if state == "" || err != nil {
		http.Error(w, "syncsrv: barrier needs state and integer n", http.StatusBadRequest)
		return
	}
	gen, err := s.hub.Barrier(state, n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]int64{"generation": gen})
}

func (s *Server) handleDraws(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"width": s.hub.Width(), "issued": s.hub.IssueLog()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort to a dead client
}
