package syncsrv

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer serves a fresh hub on an ephemeral loopback port with the
// given workers registered, and shuts it down when the test ends.
func startServer(t *testing.T, workers ...string) *Server {
	t.Helper()
	s := NewServer(NewHub(testNet(t)))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	for _, w := range workers {
		if _, err := s.hub.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// rawChannel upgrades a bare connection to a draw channel, for writing
// frames a Client never would.
func rawChannel(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	io.WriteString(conn, "GET "+drawPath+" HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: "+drawProto+"\r\n\r\n") //nolint:errcheck // a failed write fails ReadResponse
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %v", resp, err)
	}
	return conn, br
}

// frame encodes a request frame with an explicit worker-length field.
func frame(op byte, n uint32, lease uint64, wlen uint16, worker string) []byte {
	f := []byte{op}
	f = binary.BigEndian.AppendUint32(f, n)
	f = binary.BigEndian.AppendUint64(f, lease)
	f = binary.BigEndian.AppendUint16(f, wlen)
	return append(f, worker...)
}

// readRawReply reads one reply frame: its lease, status and payload.
func readRawReply(t *testing.T, br *bufio.Reader) (uint64, byte, []byte) {
	t.Helper()
	var hdr [repHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("reading reply: %v (did the server drop the channel?)", err)
	}
	count := binary.BigEndian.Uint32(hdr[9:])
	size := int(count)
	if hdr[8] == statusOK {
		size *= 8
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatalf("reading reply payload: %v", err)
	}
	return binary.BigEndian.Uint64(hdr[:]), hdr[8], payload
}

// TestDrawChannelMalformedFrames: every malformed request gets an error
// reply naming its fault and the channel keeps serving; a channel cut
// mid-frame ends alone, and other channels keep serving throughout.
func TestDrawChannelMalformedFrames(t *testing.T) {
	s := startServer(t, "w0")
	conn, br := rawChannel(t, s)
	long := strings.Repeat("x", 1<<16-1)
	for i, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"unknown op", frame(7, 4, 10, 2, "w0"), "unknown draw-channel op 7"},
		{"empty worker", frame(opDraw, 4, 11, 0, ""), "empty worker"},
		{"zero n", frame(opDraw, 0, 12, 2, "w0"), "draw of 0 values"},
		{"n just over the cap", frame(opDraw, maxDraw+1, 13, 2, "w0"), "draw of 65537 values"},
		{"n at u32 max", frame(opDraw, 1<<32-1, 14, 2, "w0"), "want 1..65536"},
		{"unregistered worker", frame(opDraw, 4, 15, 5, "ghost"), "unregistered worker"},
		{"longest unregistered worker", frame(opDraw, 4, 16, 1<<16-1, long), "unregistered worker"},
	} {
		if _, err := conn.Write(tc.frame); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		lease, status, msg := readRawReply(t, br)
		if lease != uint64(10+i) || status != statusErr || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: reply lease %d status %d %q, want lease %d error containing %q",
				tc.name, lease, status, msg, 10+i, tc.want)
		}
	}

	// The same channel still leases, and pipelined frames come back in
	// order with distinct values.
	if _, err := conn.Write(append(frame(opDraw, 3, 20, 2, "w0"), frame(opDraw, 1, 21, 2, "w0")...)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		lease uint64
		bytes int
	}{{20, 3 * 8}, {21, 8}} {
		lease, status, vals := readRawReply(t, br)
		if lease != want.lease || status != statusOK || len(vals) != want.bytes {
			t.Fatalf("pipelined reply: lease %d status %d %d payload bytes, want lease %d ok %d",
				lease, status, len(vals), want.lease, want.bytes)
		}
	}

	// A channel cut mid-frame ends without disturbing the others.
	cut, _ := rawChannel(t, s)
	cut.Write(frame(opDraw, 4, 30, 2, "w0")[:7]) //nolint:errcheck // the cut is the point
	cut.Close()
	c := NewClient(s.URL())
	for i := 0; i < 3; i++ {
		if vals, err := c.Draw("w0", 2); err != nil || len(vals) != 2 {
			t.Fatalf("client draw after malformed frames: %v %v", vals, err)
		}
	}

	// A plain request to the upgrade path is refused, not hijacked.
	resp, err := http.Get(s.URL() + drawPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Errorf("GET %s without Upgrade: %s, want 426", drawPath, resp.Status)
	}
}

// TestShutdownEndsDrawChannels: Shutdown closes every hijacked draw
// channel, which http.Server.Shutdown does not track. Draws in flight
// return an error instead of hanging, a Draw after Shutdown fails
// promptly, and no server or client goroutine outlives the server.
func TestShutdownEndsDrawChannels(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewServer(NewHub(testNet(t)))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	clients := []*Client{NewClient(s.URL()), NewClient(s.URL())}
	workers := []string{"w0", "w1", "w2", "w3"}
	for _, w := range workers {
		if _, err := clients[0].Register(w); err != nil {
			t.Fatal(err)
		}
	}

	// Each worker draws in a loop until its draw fails.
	var drawn, wg sync.WaitGroup
	drawn.Add(len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func(c *Client, w string) {
			defer wg.Done()
			first := true
			for {
				if _, err := c.Draw(w, 4); err != nil {
					if first {
						t.Errorf("%s: first draw: %v", w, err)
						drawn.Done()
					}
					return
				}
				if first {
					first = false
					drawn.Done()
				}
			}
		}(clients[i%len(clients)], w)
	}
	drawn.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ended := make(chan struct{})
	go func() {
		wg.Wait()
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("draws in flight at Shutdown did not return")
	}

	start := time.Now()
	if _, err := clients[0].Draw("w0", 1); err == nil {
		t.Fatal("Draw after Shutdown succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Draw after Shutdown took %v to fail", d)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Shutdown, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestClientCloseEndsDrawChannel: Close on a live server ends the
// client's draw channel — its reader goroutine and the server's
// goroutine for it — and its idle HTTP connections, while the server
// keeps serving other clients. A Draw after Close fails at once
// instead of dialing again.
func TestClientCloseEndsDrawChannel(t *testing.T) {
	s := startServer(t, "w0", "w1")
	baseline := runtime.NumGoroutine()
	c := NewClient(s.URL())
	if _, err := c.Register("w2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Draw("w0", 2); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	start := time.Now()
	if _, err := c.Draw("w0", 1); err == nil {
		t.Fatal("Draw after Close succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Draw after Close took %v to fail", d)
	}
	open := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.chans)
	}
	deadline := time.Now().Add(5 * time.Second)
	for (open() > 0 || runtime.NumGoroutine() > baseline) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := open(); n != 0 {
		t.Fatalf("server still holds %d draw channels after Close", n)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}

	other := NewClient(s.URL())
	defer other.Close()
	if _, err := other.Draw("w1", 1); err != nil {
		t.Fatalf("server stopped serving after a client closed: %v", err)
	}
}
