package syncsrv

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Client is the worker-side view of a sync Server. The zero client is
// not usable; build one with NewClient, and Close it when done. Methods
// are safe for concurrent use: Draw calls share one draw channel, the
// rest one http.Client.
type Client struct {
	base string
	http *http.Client

	dialMu  sync.Mutex               // serializes dialing the draw channel; guards closed
	closed  bool                     // Close was called: dial no more
	ch      atomic.Pointer[drawChan] // nil until the first Draw and after the channel dies
	leases  atomic.Uint64            // last lease ID issued
	waiters sync.Pool                // of *waiter
}

// NewClient targets the server at base (e.g. "http://127.0.0.1:8123").
// Barrier calls block server-side, so the underlying HTTP client has
// no request timeout; bound waits with the phase plan instead.
func NewClient(base string) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
	c.waiters.New = func() any { return &waiter{done: make(chan struct{}, 1)} }
	return c
}

// Register announces the worker id and returns the number of workers
// registered so far.
func (c *Client) Register(worker string) (int, error) {
	var out struct {
		Workers int `json:"workers"`
	}
	err := c.call(http.MethodPost, "/register?worker="+url.QueryEscape(worker), "", &out)
	return out.Workers, err
}

// Barrier arrives at the named state and blocks until all n parties
// have arrived, returning the caller's generation.
func (c *Client) Barrier(state string, n int) (int64, error) {
	var out struct {
		Generation int64 `json:"generation"`
	}
	err := c.call(http.MethodPost,
		"/barrier?state="+url.QueryEscape(state)+"&n="+strconv.Itoa(n), "", &out)
	return out.Generation, err
}

// Draw leases n fresh counter values for the worker over the client's
// draw channel, dialing it on first use and again after it dies. A
// Draw in flight when the channel dies returns an error; the server
// may have issued its values. The channel and its reader goroutine
// last until Close, until the connection fails, or until the server
// closes it, as Server.Shutdown does.
func (c *Client) Draw(worker string, n int) ([]int64, error) {
	if err := checkDrawSize(n); err != nil {
		return nil, err
	}
	if len(worker) > math.MaxUint16 {
		return nil, fmt.Errorf("syncsrv: worker id of %d bytes (max %d)", len(worker), math.MaxUint16)
	}
	ch := c.ch.Load()
	if ch == nil {
		var err error
		if ch, err = c.dial(); err != nil {
			return nil, err
		}
	}
	w := c.waiters.Get().(*waiter)
	defer c.waiters.Put(w)
	return ch.draw(w, worker, n, c.leases.Add(1))
}

// dial returns the live draw channel, opening one if there is none.
func (c *Client) dial() (*drawChan, error) {
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if ch := c.ch.Load(); ch != nil {
		return ch, nil
	}
	return dialDrawChan(c.base, &c.ch)
}

var errClientClosed = errors.New("syncsrv: client closed")

// Close closes the client's draw channel, which ends its reader
// goroutine and the server's goroutine for it, and the client's idle
// HTTP connections. Draws in flight fail, and so does every later
// Draw, at once. The server keeps running.
func (c *Client) Close() {
	c.dialMu.Lock()
	c.closed = true
	c.dialMu.Unlock()
	if ch := c.ch.Load(); ch != nil {
		ch.fail(errClientClosed)
	}
	c.http.CloseIdleConnections()
}

// Draws fetches the server's full issue log and the network width.
func (c *Client) Draws() (width int, issued map[string][]int64, err error) {
	var out struct {
		Width  int                `json:"width"`
		Issued map[string][]int64 `json:"issued"`
	}
	err = c.call(http.MethodGet, "/draws", "", &out)
	return out.Width, out.Issued, err
}

// call performs one JSON round trip; non-2xx responses become errors
// carrying the server's message.
func (c *Client) call(method, path, body string, out any) error {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("syncsrv: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
