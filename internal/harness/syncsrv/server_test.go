package syncsrv

import "testing"

// TestServerReadHeaderTimeout: a client that stalls mid-headers must
// not hold its connection forever, while handlers stay free to block —
// /barrier and /sub long-poll by design, so there is no WriteTimeout.
func TestServerReadHeaderTimeout(t *testing.T) {
	s := NewServer(NewHub(testNet(t)))
	if got := s.http.ReadHeaderTimeout; got <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want a positive bound", got)
	}
	if got := s.http.WriteTimeout; got != 0 {
		t.Errorf("WriteTimeout = %v, want none: barrier handlers block by design", got)
	}
}
