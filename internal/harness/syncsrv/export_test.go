package syncsrv

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
