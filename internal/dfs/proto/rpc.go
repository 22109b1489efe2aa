package proto

import (
	"fmt"
	"net"
	"sync"
	"time"

	"aurora/internal/metrics"
)

// DefaultTimeout bounds a whole request/response exchange.
const DefaultTimeout = 10 * time.Second

// CallFunc is the signature of Call. Components take a CallFunc so the
// fault-injection harness can interpose on their RPC traffic; the zero
// value of any config falls back to Call.
type CallFunc func(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, error)

// dialTimeout is the connect primitive, a seam so the deadline-budget
// regression test can simulate a slow connect deterministically and the
// reuse tests can count dials.
var dialTimeout = net.DialTimeout

// Call sends one request frame to addr and reads one response frame,
// over the process-wide Transport: a kept-alive connection when one is
// idle, else a fresh dial. A non-nil error is returned for transport
// failures and for MsgError responses (as *RemoteError). The timeout
// bounds the whole exchange, dial included. Every call records
// per-RPC-type latency and wire-size histograms and an in-flight gauge
// into metrics.Default. Wire sizes count the full frame (length prefix
// + JSON header + payload), so header-heavy RPCs like block reports are
// measured honestly.
func Call(addr string, req *Message, payload []byte, timeout time.Duration) (*Message, []byte, error) {
	return defaultTransport.Call(addr, req, payload, timeout)
}

// Handler processes one request and returns the response.
type Handler func(req *Message, payload []byte) (*Message, []byte)

// StreamHandler drives one chunked data-path exchange. It receives the
// opening frame (a type for which OpensStream reports true, plus any
// payload riding on it) and the live stream, and owns the conversation
// until it returns. If the stream has settled by then, the server reads
// the connection's next request; otherwise it closes the connection.
type StreamHandler func(open *Message, payload []byte, st BlockStream)

// Server accepts kept-alive connections and dispatches each request on
// them to a Handler, or to a StreamHandler for stream openings.
type Server struct {
	ln       net.Listener
	done     chan struct{}
	timeout  time.Duration
	streams  StreamHandler
	inflight *metrics.Gauge
	served   *typeHandles[metrics.LogHistogram]
	stream   *streamMetrics

	mu     sync.Mutex
	closed bool
	conns  map[*conn]bool // live connections; true while idle between requests
}

// Serve starts accepting on ln. It owns the listener; Close stops it.
// Handler panics are not recovered: a handler bug should crash loudly in
// tests rather than silently drop connections.
func Serve(ln net.Listener, h Handler, timeout time.Duration) *Server {
	return ServeStreams(ln, h, nil, timeout)
}

// ServeStreams is Serve plus a StreamHandler: requests whose type opens
// a stream (OpensStream) are handed to sh with the connection kept
// alive for chunk frames; everything else takes the one-shot
// request/response path through h. A nil sh rejects stream openings
// with a MsgError response.
func ServeStreams(ln net.Listener, h Handler, sh StreamHandler, timeout time.Duration) *Server {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	s := &Server{
		ln: ln, done: make(chan struct{}), timeout: timeout, streams: sh,
		inflight: metrics.Default.Gauge("aurora_rpc_server_inflight"),
		served: newTypeHandles(func(typ MsgType) *metrics.LogHistogram {
			return metrics.Default.Histogram("aurora_rpc_server_seconds", metrics.L("type", string(typ)))
		}),
		stream: newStreamMetrics(),
		conns:  make(map[*conn]bool),
	}
	defaultTransport.serverOpened(s.Addr())
	go s.acceptLoop(h)
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes every idle kept-alive connection at
// once and waits for the accept loop to exit. A connection busy with an
// exchange is closed as soon as that exchange ends, so no request that
// arrives after Close is served. The process-wide Transport drops its
// idle connections to the server and pools none that come back later.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c, idle := range s.conns {
		if idle {
			//lint:ignore errcheck teardown; the connection goroutine sees the error and exits
			_ = c.close()
		}
	}
	s.mu.Unlock()
	err := s.ln.Close()
	<-s.done
	defaultTransport.serverClosed(s.Addr())
	return err
}

func (s *Server) acceptLoop(h Handler) {
	defer close(s.done)
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		//lint:ignore goroleak connection-scoped: serveConn exits on EOF, on the idle or per-exchange deadline, or when Close closes the connection
		go s.serveConn(newConn(nc), h)
	}
}

// setIdle records c as idle (idle=true) or busy with an exchange. It
// reports false once the server is closed; the caller then closes c.
func (s *Server) setIdle(c *conn, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = idle
	return true
}

// serveConn serves one connection: wait for the next request under the
// idle deadline, serve it, repeat while each exchange ends cleanly.
func (s *Server) serveConn(c *conn, h Handler) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		//lint:ignore errcheck connection teardown; nothing to report
		_ = c.close()
	}()
	for s.setIdle(c, true) {
		if err := c.nc.SetDeadline(time.Now().Add(serverIdleTimeout)); err != nil {
			return
		}
		if _, err := c.br.Peek(1); err != nil {
			return // peer closed, idle too long, or Close closed c
		}
		if !s.setIdle(c, false) || !s.serveOne(c, h) {
			return
		}
	}
}

// serveOne reads one request on c and answers it. It reports whether
// the exchange ended cleanly, so that c may carry the next one.
func (s *Server) serveOne(c *conn, h Handler) bool {
	s.inflight.Inc()
	defer s.inflight.Dec()
	if err := c.nc.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return false
	}
	req, payload, _, err := readFrame(c.br)
	if err != nil {
		return false // peer vanished or sent garbage; nothing to answer
	}
	served := s.served.get(req.Type)
	if req.Type.OpensStream() {
		if s.streams == nil {
			//lint:ignore errcheck best effort; peer may be gone
			_, _ = writeFrame(c.nc, ErrorMessage(fmt.Errorf("proto: %s: no stream handler", req.Type)), nil)
			return false
		}
		start := time.Now()
		st := newStream(c, req.Type, s.timeout, s.stream)
		s.streams(req, payload, st)
		served.Observe(time.Since(start).Seconds())
		return st.handBack()
	}
	start := time.Now()
	resp, respPayload := h(req, payload)
	served.Observe(time.Since(start).Seconds())
	if resp == nil {
		resp = &Message{Type: MsgOK}
	}
	_, err = writeFrame(c.nc, resp, respPayload)
	return err == nil
}
