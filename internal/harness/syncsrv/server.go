package syncsrv

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Server exposes a Hub over HTTP. Every endpoint but /drawchan speaks
// JSON; blocking endpoints (/barrier, /sub) hold the request open until
// released, so workers long-poll instead of spinning.
//
//	POST /register?worker=W          -> {"workers":K} (409 on duplicate)
//	POST /barrier?state=S&n=N        -> blocks; {"generation":G}
//	POST /pub?topic=T    (body)      -> {"seq":I}
//	GET  /sub?topic=T&after=I&wait=D -> {"entries":[...],"next":J}
//	PUT  /kv?key=K       (body)      -> 204
//	GET  /kv?key=K                   -> value (404 when absent)
//	GET  /draws                      -> {"width":W,"issued":{...}}
//	GET  /healthz                    -> ok
//	GET  /drawchan  (Upgrade: countnet-draw/1)
//	                                 -> 101; then binary lease frames
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

// maxSubWait caps a /sub long-poll so an abandoned watcher cannot pin
// its handler goroutine past the run.
const maxSubWait = 30 * time.Second

// readHeaderTimeout bounds how long a client may take to send request
// headers, so a stalled client cannot hold a connection forever. There
// is deliberately no WriteTimeout: /barrier and /sub block by design.
const readHeaderTimeout = 10 * time.Second

// NewServer wraps the hub. Call Start to begin serving.
func NewServer(hub *Hub) *Server {
	s := &Server{hub: hub, chans: map[net.Conn]struct{}{}}
	mux := http.NewServeMux()
	mux.HandleFunc("/register", s.handleRegister)
	mux.HandleFunc("/barrier", s.handleBarrier)
	mux.HandleFunc("/pub", s.handlePub)
	mux.HandleFunc("/sub", s.handleSub)
	mux.HandleFunc("/kv", s.handleKV)
	mux.HandleFunc("/draws", s.handleDraws)
	mux.HandleFunc(drawPath, s.handleDrawChan)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
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

// Shutdown closes the hub (releasing blocked barrier and subscribe
// handlers), closes every draw channel (failing the Draw calls pending
// on them), drains the HTTP server, and waits for the channel
// goroutines to exit.
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

func (s *Server) handlePub(w http.ResponseWriter, r *http.Request) {
	topic := r.URL.Query().Get("topic")
	if topic == "" {
		http.Error(w, "syncsrv: pub needs topic", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]int{"seq": s.hub.Publish(topic, string(body))})
}

func (s *Server) handleSub(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	topic := q.Get("topic")
	if topic == "" {
		http.Error(w, "syncsrv: sub needs topic", http.StatusBadRequest)
		return
	}
	after, _ := strconv.Atoi(q.Get("after"))
	wait := time.Duration(0)
	if d := q.Get("wait"); d != "" {
		var err error
		if wait, err = time.ParseDuration(d); err != nil {
			http.Error(w, "syncsrv: bad wait duration", http.StatusBadRequest)
			return
		}
	}
	if wait > maxSubWait {
		wait = maxSubWait
	}
	entries, next := s.hub.Subscribe(topic, after, wait)
	writeJSON(w, map[string]any{"entries": entries, "next": next})
}

func (s *Server) handleKV(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "syncsrv: kv needs key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.hub.Put(key, string(body))
		w.WriteHeader(http.StatusNoContent)
	default:
		v, ok := s.hub.Get(key)
		if !ok {
			http.Error(w, "syncsrv: no such key", http.StatusNotFound)
			return
		}
		fmt.Fprint(w, v)
	}
}

func (s *Server) handleDraws(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"width": s.hub.Width(), "issued": s.hub.IssueLog()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort to a dead client
}
