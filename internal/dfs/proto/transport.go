package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"aurora/internal/metrics"
)

// Connection reuse (DESIGN.md §15.1, §15.4). The ages are fixed, not
// options: a client gives an idle connection up well before the server
// would drop it, so a connection taken from the pool is normally still
// open at the far end, and the redial rule covers the rest.
const (
	// clientIdleTimeout is how long a Transport keeps an unused
	// connection before closing it.
	clientIdleTimeout = 10 * time.Second
	// serverIdleTimeout is how long a Server waits for the next request
	// on a kept-alive connection.
	serverIdleTimeout = 2 * clientIdleTimeout
	// maxIdlePerAddr caps the idle connections a Transport keeps per
	// address; a settled connection returned beyond it is closed.
	maxIdlePerAddr = 8
	// connBufSize is the read buffer of one connection: it holds the
	// length prefix and header of a typical frame, while chunk payloads
	// larger than it are read straight into their own buffers.
	connBufSize = 4 << 10
)

// conn is one TCP connection and its read buffer. The connection
// outlives the exchanges it carries, and so does the buffer.
type conn struct {
	nc     net.Conn
	br     *bufio.Reader
	nread  int64     // bytes read off the socket, for the redial rule
	reused bool      // came from an idle pool rather than a fresh dial
	idleAt time.Time // when it last went back to the pool
}

func newConn(nc net.Conn) *conn {
	c := &conn{nc: nc}
	c.br = bufio.NewReaderSize(c, connBufSize)
	return c
}

// Read feeds the read buffer and counts what arrives; frames are read
// through c.br, never through Read directly.
func (c *conn) Read(p []byte) (int, error) {
	n, err := c.nc.Read(p)
	c.nread += int64(n)
	return n, err
}

func (c *conn) close() error { return c.nc.Close() }

// stale reports whether err, seen on this connection after it had read
// mark bytes, says the peer closed a pooled connection before the
// request reached it: the connection came from the pool, the failure is
// a closed or reset connection (not a timeout), and no response byte
// has arrived. A server never drops a connection after reading a
// request without answering it, short of crashing, so only then is one
// redial safe (DESIGN.md §15.4).
func (c *conn) stale(err error, mark int64) bool {
	if !c.reused || c.nread != mark {
		return false
	}
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNABORTED)
}

// Transport carries Call and OpenStream exchanges over kept-alive TCP
// connections and holds the idle ones per address, the way an HDFS IPC
// client keeps one connection open per remote address. A one-shot
// exchange returns its connection once the response frame is read; a
// stream returns it when it has settled (DESIGN.md §15.1). Every other
// ending closes the connection. A Transport is safe for concurrent use.
type Transport struct {
	inflight *metrics.Gauge
	dialed   *metrics.Counter
	reused   *metrics.Counter
	rpc      *typeHandles[clientRPC]
	stream   *streamMetrics

	mu   sync.Mutex
	idle map[string][]*conn // oldest first
	// closed marks addresses whose in-process Server has closed: a
	// connection to one that comes back from an exchange still in
	// flight at Close is closed rather than pooled.
	closed map[string]bool
}

// NewTransport returns a Transport with an empty pool. Its instruments
// live in metrics.Default.
func NewTransport() *Transport {
	return &Transport{
		inflight: metrics.Default.Gauge("aurora_rpc_client_inflight"),
		dialed:   metrics.Default.Counter("aurora_rpc_conns_dialed_total"),
		reused:   metrics.Default.Counter("aurora_rpc_conns_reused_total"),
		rpc:      newTypeHandles(newClientRPC),
		stream:   newStreamMetrics(),
		idle:     make(map[string][]*conn),
		closed:   make(map[string]bool),
	}
}

// defaultTransport backs the package-level Call and OpenStream, as
// net/http.DefaultTransport backs http.Get.
//
//lint:ignore globalmut process-wide, internally synchronized connection cache; holds no placement state
var defaultTransport = NewTransport()

// get returns a connection to addr: the most recently returned idle
// one, else a fresh dial bounded by deadline.
func (t *Transport) get(addr string, deadline time.Time) (*conn, error) {
	t.mu.Lock()
	expired := t.evictLocked(time.Now())
	var c *conn
	if l := t.idle[addr]; len(l) > 0 {
		c = l[len(l)-1]
		l[len(l)-1] = nil
		if len(l) == 1 {
			delete(t.idle, addr)
		} else {
			t.idle[addr] = l[:len(l)-1]
		}
	}
	t.mu.Unlock()
	closeAll(expired)
	if c != nil {
		t.reused.Inc()
		return c, nil
	}
	return t.dial(addr, deadline)
}

// dial opens a fresh connection, bounded by deadline.
func (t *Transport) dial(addr string, deadline time.Time) (*conn, error) {
	nc, err := dialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	t.dialed.Inc()
	return newConn(nc), nil
}

// put returns a connection whose last exchange ended cleanly to the
// idle pool, or closes it when the address already has maxIdlePerAddr
// idle connections or unread bytes sit in its buffer.
func (t *Transport) put(addr string, c *conn) {
	now := time.Now()
	c.reused, c.idleAt = true, now
	t.mu.Lock()
	expired := t.evictLocked(now)
	if l := t.idle[addr]; len(l) < maxIdlePerAddr && c.br.Buffered() == 0 && !t.closed[addr] {
		t.idle[addr] = append(l, c)
		c = nil
	}
	t.mu.Unlock()
	closeAll(expired)
	if c != nil {
		//lint:ignore errcheck surplus idle connection; nothing to report
		_ = c.close()
	}
}

// evictLocked removes and returns every idle connection older than
// clientIdleTimeout. It runs on every checkout and return, so the pool
// never keeps connections to an address that is not dialled again.
func (t *Transport) evictLocked(now time.Time) []*conn {
	var out []*conn
	for addr, l := range t.idle {
		n := 0
		for n < len(l) && now.Sub(l[n].idleAt) >= clientIdleTimeout {
			n++
		}
		if n == 0 {
			continue
		}
		out = append(out, l[:n]...)
		if n == len(l) {
			delete(t.idle, addr)
		} else {
			t.idle[addr] = append(l[:0], l[n:]...)
		}
	}
	return out
}

// maxClosedAddrs bounds the closed-address marks; past it they are
// dropped, which costs at most a stale connection redialled later.
const maxClosedAddrs = 1024

// serverClosed closes every idle connection to addr and keeps the ones
// still in use from being pooled when they come back: the server there
// is gone. A Server calls it from Close.
func (t *Transport) serverClosed(addr string) {
	t.mu.Lock()
	l := t.idle[addr]
	delete(t.idle, addr)
	if len(t.closed) >= maxClosedAddrs {
		clear(t.closed)
	}
	t.closed[addr] = true
	t.mu.Unlock()
	closeAll(l)
}

// serverOpened clears the mark serverClosed left: a new Server listens
// on addr.
func (t *Transport) serverOpened(addr string) {
	t.mu.Lock()
	delete(t.closed, addr)
	t.mu.Unlock()
}

// CloseIdleConnections closes every idle connection. Connections in use
// are unaffected; they return to the pool when their exchange ends.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[string][]*conn)
	t.mu.Unlock()
	for _, l := range idle {
		closeAll(l)
	}
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		//lint:ignore errcheck idle connection teardown; nothing to report
		_ = c.close()
	}
}

// Call sends one request frame to addr and reads one response frame,
// over a pooled connection when one is idle. See the package-level Call.
func (t *Transport) Call(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, error) {
	m := t.rpc.get(req.Type)
	t.inflight.Inc()
	start := time.Now()
	resp, respPayload, wrote, read, err := t.roundTrip(addr, req, payload, timeout)
	m.latency.Observe(time.Since(start).Seconds())
	t.inflight.Dec()
	if err != nil {
		m.errors.Inc()
		return resp, respPayload, err
	}
	m.reqBytes.Observe(float64(wrote))
	m.respBytes.Observe(float64(read))
	return resp, respPayload, nil
}

// roundTrip is the uninstrumented exchange; it also reports the wire
// bytes written and read. A single deadline computed up front bounds
// dial, write and read together — a redial included — so one call can
// never take ~2x its timeout (the bug the regression tests in
// rpc_test.go pin).
func (t *Transport) roundTrip(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, int, int, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	deadline := time.Now().Add(timeout)
	c, err := t.get(addr, deadline)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	for redialled := false; ; redialled = true {
		mark := c.nread
		resp, respPayload, wrote, read, err := exchange(c, req, payload, deadline)
		if err == nil {
			t.put(addr, c)
			if err := resp.AsError(); err != nil {
				return nil, nil, wrote, read, err
			}
			return resp, respPayload, wrote, read, nil
		}
		//lint:ignore errcheck already failing; the exchange error is the one to report
		_ = c.close()
		if redialled || !c.stale(err, mark) {
			return nil, nil, wrote, read, err
		}
		if c, err = t.dial(addr, deadline); err != nil {
			return nil, nil, 0, 0, err
		}
	}
}

// exchange writes one request frame on c and reads one response frame.
func exchange(c *conn, req *Message, payload []byte, deadline time.Time) (*Message, []byte, int, int, error) {
	if err := c.nc.SetDeadline(deadline); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("proto: set deadline: %w", err)
	}
	wrote, err := writeFrame(c.nc, req, payload)
	if err != nil {
		return nil, nil, wrote, 0, err
	}
	resp, respPayload, read, err := readFrame(c.br)
	if err != nil {
		return nil, nil, wrote, read, err
	}
	return resp, respPayload, wrote, read, nil
}

// OpenStream sends the opening frame to addr, over a pooled connection
// when one is idle, and returns the live stream. See the package-level
// OpenStream.
func (t *Transport) OpenStream(addr string, open *Message, timeout time.Duration) (BlockStream, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	c, err := t.get(addr, time.Now().Add(timeout))
	if err != nil {
		return nil, err
	}
	st := newStream(c, open.Type, timeout, t.stream)
	st.opener, st.tr, st.addr, st.open = true, t, addr, open
	if err := st.sendOpen(); err != nil {
		//lint:ignore errcheck already failing; the send error is the one to report
		_ = st.Close()
		return nil, err
	}
	return st, nil
}

// clientRPC is the per-type instrument set of the client side of Call.
type clientRPC struct {
	latency, reqBytes, respBytes *metrics.LogHistogram
	errors                       *metrics.Counter
}

func newClientRPC(typ MsgType) *clientRPC {
	l := metrics.L("type", string(typ))
	return &clientRPC{
		latency:   metrics.Default.Histogram("aurora_rpc_latency_seconds", l),
		reqBytes:  metrics.Default.Histogram("aurora_rpc_request_bytes", l),
		respBytes: metrics.Default.Histogram("aurora_rpc_response_bytes", l),
		errors:    metrics.Default.Counter("aurora_rpc_errors", l),
	}
}

// streamMetrics is the chunk accounting every Stream records into
// (DESIGN.md §15.1).
type streamMetrics struct {
	sendChunks, sendBytes, recvChunks, recvBytes *metrics.Counter
}

func newStreamMetrics() *streamMetrics {
	send, recv := metrics.L("dir", "send"), metrics.L("dir", "recv")
	return &streamMetrics{
		sendChunks: metrics.Default.Counter("aurora_stream_chunks", send),
		sendBytes:  metrics.Default.Counter("aurora_stream_bytes", send),
		recvChunks: metrics.Default.Counter("aurora_stream_chunks", recv),
		recvBytes:  metrics.Default.Counter("aurora_stream_bytes", recv),
	}
}

// maxCachedTypes bounds a typeHandles cache: message types arrive from
// the wire, so a peer must not be able to grow it without limit.
const maxCachedTypes = 64

// typeHandles resolves one instrument set per MsgType on first use and
// serves it afterwards without a registry lookup, which formats a
// series ID and allocates on every call.
type typeHandles[T any] struct {
	mk func(MsgType) *T

	mu    sync.Mutex
	cache map[MsgType]*T
}

func newTypeHandles[T any](mk func(MsgType) *T) *typeHandles[T] {
	return &typeHandles[T]{mk: mk, cache: make(map[MsgType]*T)}
}

func (h *typeHandles[T]) get(typ MsgType) *T {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.cache[typ]
	if !ok {
		v = h.mk(typ)
		if len(h.cache) < maxCachedTypes {
			h.cache[typ] = v
		}
	}
	return v
}
