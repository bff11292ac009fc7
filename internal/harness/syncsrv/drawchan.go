package syncsrv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The draw channel is Client.Draw's transport: one TCP connection per
// client, upgraded on the server's HTTP listener, over which every
// lease is multiplexed as a fixed-layout binary frame. The client
// sends
//
//	GET /drawchan HTTP/1.1
//	Connection: Upgrade
//	Upgrade: countnet-draw/1
//
// and after "101 Switching Protocols" both sides speak frames, every
// integer big-endian:
//
//	request  op u8 | n u32 | lease u64 | wlen u16 | worker [wlen]byte
//	reply    lease u64 | status u8 | count u32 | payload
//
// op is opDraw; n is the lease size (1..maxDraw); lease is an ID the
// client picks and the reply echoes, so any number of leases may be in
// flight at once. A statusOK reply carries count int64 values, a
// statusErr reply a count-byte message. A malformed request (unknown
// op, empty worker, bad n) gets an error reply and the channel keeps
// serving. The server answers in request order and flushes only when
// no further request is buffered, so pipelined leases share syscalls.
const (
	drawPath  = "/drawchan"
	drawProto = "countnet-draw/1"

	opDraw    = 1
	reqHeader = 1 + 4 + 8 + 2
	repHeader = 8 + 1 + 4
	statusOK  = 0
	statusErr = 1

	// maxReplyMsg caps an error reply's message on both ends.
	maxReplyMsg = 1 << 12
	// maxInterned caps a channel's cache of worker ids.
	maxInterned = 1 << 10
)

// handleDrawChan upgrades the connection to a draw channel and serves
// it until the client hangs up or Shutdown closes it.
func (s *Server) handleDrawChan(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != drawProto {
		w.Header().Set("Upgrade", drawProto)
		http.Error(w, "syncsrv: "+drawPath+" needs Upgrade: "+drawProto, http.StatusUpgradeRequired)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "syncsrv: connection cannot be upgraded", http.StatusInternalServerError)
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return
	}
	if !s.track(conn) {
		conn.Close()
		return
	}
	defer s.untrack(conn)
	// Drop the header-read deadline net/http set: a channel idles
	// between phases for as long as the run needs.
	if conn.SetDeadline(time.Time{}) != nil {
		return
	}
	rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + drawProto + "\r\n\r\n") //nolint:errcheck // sticky; surfaces at the first Flush
	s.serveDraws(rw.Reader, rw.Writer)
}

// track registers an upgraded connection so Shutdown can close it; it
// reports false once Shutdown has begun.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.chans[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.chans, conn)
	s.mu.Unlock()
	conn.Close()
	s.wg.Done()
}

// serveDraws answers request frames until the connection fails.
func (s *Server) serveDraws(br *bufio.Reader, bw *bufio.Writer) {
	var (
		hdr     [reqHeader]byte
		name    []byte
		vals    []int64
		workers = map[string]string{} // interned ids: no string per frame
	)
	for {
		if br.Buffered() == 0 && bw.Flush() != nil {
			return
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		op, n := hdr[0], binary.BigEndian.Uint32(hdr[1:])
		lease, wlen := binary.BigEndian.Uint64(hdr[5:]), binary.BigEndian.Uint16(hdr[13:])
		name = slices.Grow(name[:0], int(wlen))[:wlen]
		if _, err := io.ReadFull(br, name); err != nil {
			return
		}
		var err error
		switch {
		case op != opDraw:
			err = fmt.Errorf("syncsrv: unknown draw-channel op %d", op)
		case wlen == 0:
			err = fmt.Errorf("syncsrv: draw with empty worker id")
		default:
			worker, ok := workers[string(name)]
			if !ok {
				worker = string(name)
				if len(workers) < maxInterned {
					workers[worker] = worker
				}
			}
			vals, err = s.hub.drawInto(worker, int(n), vals)
		}
		writeReply(bw, lease, vals, err)
	}
}

// writeReply buffers one reply frame: vals, or err's message when err
// is non-nil.
func writeReply(bw *bufio.Writer, lease uint64, vals []int64, err error) {
	buf := binary.BigEndian.AppendUint64(bw.AvailableBuffer(), lease)
	if err != nil {
		msg := err.Error()
		if len(msg) > maxReplyMsg {
			msg = msg[:maxReplyMsg]
		}
		buf = append(buf, statusErr)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(msg)))
		buf = append(buf, msg...)
	} else {
		buf = append(buf, statusOK)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(vals)))
		for _, v := range vals {
			buf = binary.BigEndian.AppendUint64(buf, uint64(v))
		}
	}
	bw.Write(buf) //nolint:errcheck // sticky; surfaces at the next Flush
}

// drawChan is the client end of a draw channel. Every Draw on the
// client registers a waiter under its lease ID, writes its frame, and
// blocks; one reader goroutine hands each reply to its waiter.
type drawChan struct {
	conn  net.Conn
	owner *atomic.Pointer[drawChan] // the client's slot, cleared when the channel dies
	wmu   sync.Mutex                // serializes frame writes

	mu      sync.Mutex
	err     error              // why the channel died; nil while it serves
	waiters map[uint64]*waiter // in-flight leases by ID
}

// waiter is one Draw's reply mailbox, reused across draws.
type waiter struct {
	done  chan struct{} // capacity 1: signalled exactly once per lease
	vals  []int64
	err   error
	frame []byte // request scratch
}

// dialDrawChan opens and upgrades a draw channel to the server at base,
// installs it in owner and starts its reader. The channel clears owner
// when it dies, so it must be installed before the reader can fail.
func dialDrawChan(base string, owner *atomic.Pointer[drawChan]) (*drawChan, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		return nil, err
	}
	req := "GET " + drawPath + " HTTP/1.1\r\nHost: " + u.Host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + drawProto + "\r\n\r\n"
	br := bufio.NewReader(conn)
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("syncsrv: draw channel upgrade: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("syncsrv: draw channel upgrade: %s", resp.Status)
	}
	ch := &drawChan{conn: conn, owner: owner, waiters: map[uint64]*waiter{}}
	owner.Store(ch)
	go ch.read(br)
	return ch, nil
}

// draw leases n values for worker under the given lease ID.
func (ch *drawChan) draw(w *waiter, worker string, n int, lease uint64) ([]int64, error) {
	ch.mu.Lock()
	if ch.err != nil {
		ch.mu.Unlock()
		return nil, ch.err
	}
	ch.waiters[lease] = w
	ch.mu.Unlock()

	f := append(w.frame[:0], opDraw)
	f = binary.BigEndian.AppendUint32(f, uint32(n))
	f = binary.BigEndian.AppendUint64(f, lease)
	f = binary.BigEndian.AppendUint16(f, uint16(len(worker)))
	w.frame = append(f, worker...)
	ch.wmu.Lock()
	_, err := ch.conn.Write(w.frame)
	ch.wmu.Unlock()
	if err != nil {
		// The reader then fails every waiter, this one included.
		ch.fail(err)
	}
	<-w.done
	vals, err := w.vals, w.err
	w.vals, w.err = nil, nil
	return vals, err
}

// fail records why the channel died, if it is the first to, detaches
// it from the client so the next Draw dials afresh, and closes the
// connection.
func (ch *drawChan) fail(err error) {
	ch.mu.Lock()
	if ch.err == nil {
		ch.err = fmt.Errorf("syncsrv: draw channel: %w", err)
		ch.owner.CompareAndSwap(ch, nil)
	}
	ch.mu.Unlock()
	ch.conn.Close()
}

// read dispatches replies to their waiters until the stream fails,
// then fails every waiter still in flight.
func (ch *drawChan) read(br *bufio.Reader) {
	var hdr [repHeader]byte
	var err error
	for {
		if _, err = io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		lease, status, count := binary.BigEndian.Uint64(hdr[:]), hdr[8], binary.BigEndian.Uint32(hdr[9:])
		ch.mu.Lock()
		w := ch.waiters[lease]
		delete(ch.waiters, lease)
		ch.mu.Unlock()
		if w == nil {
			err = fmt.Errorf("reply to unknown lease %d", lease)
			break
		}
		w.vals, w.err, err = readReply(br, status, count)
		if err != nil {
			w.err = fmt.Errorf("syncsrv: draw channel: %w", err)
		}
		w.done <- struct{}{}
		if err != nil {
			break
		}
	}
	ch.fail(err)
	ch.mu.Lock()
	for lease, w := range ch.waiters {
		delete(ch.waiters, lease)
		w.err = ch.err
		w.done <- struct{}{}
	}
	ch.mu.Unlock()
}

// readReply reads one reply's payload: the values of an ok reply, or
// an error reply's message as drawErr. A non-nil err means the stream
// itself is broken.
func readReply(br *bufio.Reader, status byte, count uint32) (vals []int64, drawErr, err error) {
	switch {
	case status == statusOK && count >= 1 && count <= maxDraw:
		vals = make([]int64, count)
		for i := range vals {
			b, err := br.Peek(8) // no scratch array to escape through io.Reader
			if err != nil {
				return nil, nil, err
			}
			vals[i] = int64(binary.BigEndian.Uint64(b))
			br.Discard(8) //nolint:errcheck // the 8 bytes were just peeked
		}
		return vals, nil, nil
	case status == statusErr && count <= maxReplyMsg:
		msg := make([]byte, count)
		if _, err := io.ReadFull(br, msg); err != nil {
			return nil, nil, err
		}
		return nil, errors.New(string(msg)), nil
	}
	return nil, nil, fmt.Errorf("bad reply (status %d, count %d)", status, count)
}
