package syncsrv

import "countnet/internal/obs"

// FreeHandles returns the length of the hub's combining-handle free
// list.
func FreeHandles(h *Hub) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.handles)
}

// DropDrawChannels closes every draw channel the server holds open, as
// a network fault would, and returns how many it closed. The server
// keeps accepting new channels.
func DropDrawChannels(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.chans {
		conn.Close()
	}
	return len(s.chans)
}

// DrawHooked is Hub.Draw with schedule instrumentation for package
// sched, threaded through the one draw body into the combining
// handle's NextBlockHooked.
func DrawHooked(h *Hub, worker string, n int, yield func(op string), block func(op string, ready func() bool)) ([]int64, error) {
	return h.drawInto(worker, n, nil, yield, block)
}

// EnableDrawObs attaches observability to the hub's combining draw
// counter, registered into r.
func EnableDrawObs(h *Hub, r *obs.Registry) *obs.CombineObs {
	return h.draw.EnableObs("hub", r)
}
