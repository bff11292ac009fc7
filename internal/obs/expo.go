package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Exposition: a registry snapshot rendered three ways —
//
//   - /debug/vars   expvar JSON (the snapshot published as one var)
//   - /metrics      Prometheus text exposition format
//   - /snapshot     the raw Snapshot as JSON (what cmd/netmon consumes)
//
// all served from one http.Handler so countbench needs a single
// -http flag.

// expvar names are global to the process; publishing twice panics.
// publishedVars dedups across registries (first publisher wins) so
// tests with throwaway registries cannot crash the run.
var (
	publishedMu   sync.Mutex
	publishedVars = map[string]bool{}
)

// PublishExpvar publishes the registry's snapshot under the given
// expvar name ("countnet" by convention). Returns false if the name
// was already claimed (by this or any other registry).
func (r *Registry) PublishExpvar(name string) bool {
	publishedMu.Lock()
	defer publishedMu.Unlock()
	if publishedVars[name] {
		return false
	}
	publishedVars[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return true
}

// WritePrometheus renders the registry's current state in the
// Prometheus text exposition format (version 0.0.4):
//
//	countnet_counter_total{group,kind,name}        engine counters
//	countnet_gauge{group,kind,name}                instantaneous levels
//	countnet_status_info{group,name,value}         string-valued states
//	countnet_gate_tokens_total{group,gate,layer}   per-gate traffic
//	countnet_gate_contended_total{group,gate,layer}
//	countnet_layer_tokens_total{group,layer}       per-layer traffic
//	countnet_hist_bucket{group,name,le}            cumulative buckets
//	countnet_hist_sum{group,name}
//	countnet_hist_count{group,name}
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, r.Snapshot())
}

func writePrometheus(w io.Writer, s Snapshot) error {
	var b strings.Builder
	b.WriteString("# TYPE countnet_counter_total counter\n")
	for _, g := range s.Groups {
		for _, c := range g.Counters {
			fmt.Fprintf(&b, "countnet_counter_total{group=%q,kind=%q,name=%q} %d\n",
				escapeLabel(g.Name), escapeLabel(g.Kind), escapeLabel(c.Name), c.Value)
		}
	}
	b.WriteString("# TYPE countnet_gauge gauge\n")
	for _, g := range s.Groups {
		for _, c := range g.Gauges {
			fmt.Fprintf(&b, "countnet_gauge{group=%q,kind=%q,name=%q} %d\n",
				escapeLabel(g.Name), escapeLabel(g.Kind), escapeLabel(c.Name), c.Value)
		}
	}
	b.WriteString("# TYPE countnet_status_info gauge\n")
	for _, g := range s.Groups {
		for _, st := range g.Status {
			if st.Value == "" {
				continue
			}
			fmt.Fprintf(&b, "countnet_status_info{group=%q,name=%q,value=%q} 1\n",
				escapeLabel(g.Name), escapeLabel(st.Name), escapeLabel(st.Value))
		}
	}
	b.WriteString("# TYPE countnet_gate_tokens_total counter\n")
	b.WriteString("# TYPE countnet_gate_contended_total counter\n")
	for _, g := range s.Groups {
		for _, gt := range g.Gates {
			fmt.Fprintf(&b, "countnet_gate_tokens_total{group=%q,gate=\"%d\",layer=\"%d\"} %d\n",
				escapeLabel(g.Name), gt.Gate, gt.Layer, gt.Tokens)
			if gt.Contended != 0 {
				fmt.Fprintf(&b, "countnet_gate_contended_total{group=%q,gate=\"%d\",layer=\"%d\"} %d\n",
					escapeLabel(g.Name), gt.Gate, gt.Layer, gt.Contended)
			}
		}
	}
	b.WriteString("# TYPE countnet_layer_tokens_total counter\n")
	for _, g := range s.Groups {
		for _, l := range g.Layers {
			fmt.Fprintf(&b, "countnet_layer_tokens_total{group=%q,layer=\"%d\"} %d\n",
				escapeLabel(g.Name), l.Layer, l.Tokens)
		}
	}
	b.WriteString("# TYPE countnet_hist histogram\n")
	for _, g := range s.Groups {
		for _, h := range g.Hists {
			cum := int64(0)
			for i, n := range h.Hist.Buckets {
				cum += n
				if n == 0 && i != len(h.Hist.Buckets)-1 {
					continue // keep the exposition sparse but cumulative-correct
				}
				fmt.Fprintf(&b, "countnet_hist_bucket{group=%q,name=%q,le=\"%d\"} %d\n",
					escapeLabel(g.Name), escapeLabel(h.Name), BucketUpper(i), cum)
			}
			fmt.Fprintf(&b, "countnet_hist_bucket{group=%q,name=%q,le=\"+Inf\"} %d\n",
				escapeLabel(g.Name), escapeLabel(h.Name), h.Hist.Count)
			fmt.Fprintf(&b, "countnet_hist_sum{group=%q,name=%q} %d\n",
				escapeLabel(g.Name), escapeLabel(h.Name), h.Hist.Sum)
			fmt.Fprintf(&b, "countnet_hist_count{group=%q,name=%q} %d\n",
				escapeLabel(g.Name), escapeLabel(h.Name), h.Hist.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// flightDump is the /debug/flight response body: poll NextSeq, then
// fetch deltas with ?since=N (the same pagination netmon -validate
// checks).
type flightDump struct {
	Enabled bool          `json:"enabled"`
	NextSeq uint64        `json:"next_seq"`
	Events  []FlightEvent `json:"events"`
}

// escapeLabel escapes a Prometheus label value (the %q verb handles
// quotes and backslashes; newlines must not survive either way).
func escapeLabel(v string) string {
	return strings.NewReplacer("\n", `\n`).Replace(v)
}

// Handler serves the registry's exposition endpoints: /snapshot
// (JSON), /metrics (Prometheus text), /debug/vars (expvar, including
// this registry if published), and an index at /.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		f := DefaultFlight()
		var since uint64
		if q := req.URL.Query().Get("since"); q != "" {
			n, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			since = n
		}
		resp := flightDump{Enabled: f != nil, NextSeq: f.NextSeq(), Events: f.DumpSince(since)}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "countnet obs endpoints: /snapshot (JSON), /metrics (Prometheus), /debug/vars (expvar), /debug/flight (flight recorder)\n")
	})
	return mux
}

// readHeaderTimeout bounds how long a scraper may take to send request
// headers, so a stalled client cannot hold a connection forever.
const readHeaderTimeout = 10 * time.Second

// Server is a running exposition endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// StartServer listens on addr (":0" picks a free port) and serves the
// registry's Handler in a background goroutine until Shutdown.
func (r *Registry) StartServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: &http.Server{Handler: r.Handler(), ReadHeaderTimeout: readHeaderTimeout}, ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// FormatRate renders an events-per-second rate compactly (1.2M, 340k).
func FormatRate(events int64, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "-"
	}
	r := float64(events) / elapsed.Seconds()
	switch {
	case r >= 1e6:
		return strconv.FormatFloat(r/1e6, 'f', 2, 64) + "M/s"
	case r >= 1e3:
		return strconv.FormatFloat(r/1e3, 'f', 1, 64) + "k/s"
	default:
		return strconv.FormatFloat(r, 'f', 0, 64) + "/s"
	}
}
