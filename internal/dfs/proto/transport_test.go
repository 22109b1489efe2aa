package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countDials wraps the dialTimeout seam and counts the dials made to
// addr for the rest of the test.
func countDials(t *testing.T, addr string) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := dialTimeout
	dialTimeout = func(network, a string, d time.Duration) (net.Conn, error) {
		if a == addr {
			n.Add(1)
		}
		return orig(network, a, d)
	}
	t.Cleanup(func() { dialTimeout = orig })
	return &n
}

// testTransport is a private Transport, so a test neither sees nor
// leaves connections in the process-wide pool.
func testTransport(t *testing.T) *Transport {
	t.Helper()
	tr := NewTransport()
	t.Cleanup(tr.CloseIdleConnections)
	return tr
}

func (t *Transport) idleTo(addr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.idle[addr])
}

// echoServer answers every one-shot request with its own payload and
// counts the requests it served.
func echoServer(t *testing.T, sh StreamHandler) (*Server, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	srv := ServeStreams(ln, func(req *Message, payload []byte) (*Message, []byte) {
		served.Add(1)
		return &Message{Type: MsgOK, Path: req.Path}, payload
	}, sh, time.Second)
	t.Cleanup(func() { srv.Close() })
	return srv, &served
}

// chunkReader is a read-stream handler serving data in chunk-byte
// frames, Eof on the last.
func chunkReader(data []byte, chunk int) StreamHandler {
	return func(open *Message, _ []byte, st BlockStream) {
		for seq, off := 0, 0; ; seq++ {
			end := min(off+chunk, len(data))
			msg := &Message{Type: MsgChunk, Seq: seq, Offset: off, Eof: end == len(data), Checksum: ChunkChecksum(data[off:end])}
			if st.Send(msg, data[off:end]) != nil || msg.Eof {
				return
			}
			off = end
		}
	}
}

// readAll drains a read stream, checking sequence numbers from 0.
func readAll(st BlockStream) ([]byte, error) {
	var got []byte
	for seq := 0; ; seq++ {
		msg, payload, err := st.Recv()
		if err != nil {
			return got, err
		}
		if msg.Type != MsgChunk || msg.Seq != seq {
			return got, fmt.Errorf("frame %s seq %d, want chunk seq %d", msg.Type, msg.Seq, seq)
		}
		got = append(got, payload...)
		if msg.Eof {
			return got, nil
		}
	}
}

// N sequential calls to one server share one connection.
func TestTransportSequentialCallsDialOnce(t *testing.T) {
	srv, served := echoServer(t, nil)
	dials := countDials(t, srv.Addr())
	tr := testTransport(t)
	const n = 20
	for i := range n {
		path := fmt.Sprint("/f", i)
		resp, payload, err := tr.Call(srv.Addr(), &Message{Type: MsgStatFile, Path: path}, []byte(path), time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Path != path || string(payload) != path {
			t.Fatalf("call %d answered %q/%q, want %q", i, resp.Path, payload, path)
		}
	}
	if d := dials.Load(); d != 1 {
		t.Errorf("%d sequential calls dialled %d times, want 1", n, d)
	}
	if s := served.Load(); s != n {
		t.Errorf("server handled %d requests, want %d", s, n)
	}
}

// A settled read stream gives its connection back; a stream abandoned
// mid-read does not, and the next stream dials fresh and sees none of
// the abandoned stream's frames.
func TestTransportAbandonedStreamNotPooled(t *testing.T) {
	// Chunks larger than the connection's read buffer, so the frames
	// after the first are still unread on the socket when it is dropped.
	data := bytes.Repeat([]byte("0123456789"), 8<<10)
	srv, _ := echoServer(t, chunkReader(data, 8<<10))
	dials := countDials(t, srv.Addr())
	tr := testTransport(t)
	open := &Message{Type: MsgReadBlockStream, Block: 1}

	st, err := tr.OpenStream(srv.Addr(), open, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := readAll(st); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("settled read: %v", err)
	}
	st.Close()
	if n := tr.idleTo(srv.Addr()); n != 1 {
		t.Fatalf("settled stream left %d idle connections, want 1", n)
	}

	st, err = tr.OpenStream(srv.Addr(), open, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	st.Close() // abandoned after one chunk
	if n := tr.idleTo(srv.Addr()); n != 0 {
		t.Fatalf("abandoned stream left %d idle connections, want 0", n)
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("the second stream dialled; dials = %d, want 1", d)
	}

	st, err = tr.OpenStream(srv.Addr(), open, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, err := readAll(st); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after an abandoned stream: %v (%d of %d bytes)", err, len(got), len(data))
	}
	if d := dials.Load(); d != 2 {
		t.Errorf("dials = %d, want 2: the abandoned stream's connection must not be reused", d)
	}
}

// A write stream settles on the ack that follows the writer's Eof
// chunk; an error frame instead of the ack closes the connection.
func TestTransportWriteStreamSettlesOnAck(t *testing.T) {
	srv, _ := echoServer(t, func(open *Message, _ []byte, st BlockStream) {
		for {
			msg, _, err := st.Recv()
			if err != nil {
				return
			}
			if msg.Eof {
				break
			}
		}
		reply := &Message{Type: MsgStreamAck, Block: open.Block}
		if open.Block < 0 {
			reply = ErrorMessage(errors.New("rejected"))
		}
		//lint:ignore errcheck the client side asserts
		_ = st.Send(reply, nil)
	})
	tr := testTransport(t)
	write := func(block BlockID) error {
		st, err := tr.OpenStream(srv.Addr(), &Message{Type: MsgWriteBlockStream, Block: block}, time.Second)
		if err != nil {
			return err
		}
		defer st.Close()
		for seq := range 3 {
			if err := st.Send(&Message{Type: MsgChunk, Seq: seq, Eof: seq == 2}, []byte("abc")); err != nil {
				return err
			}
		}
		_, _, err = st.Recv()
		return err
	}
	if err := write(1); err != nil {
		t.Fatal(err)
	}
	if n := tr.idleTo(srv.Addr()); n != 1 {
		t.Fatalf("acked write left %d idle connections, want 1", n)
	}
	var rerr *RemoteError
	if err := write(-1); !errors.As(err, &rerr) {
		t.Fatalf("rejected write = %v, want *RemoteError", err)
	}
	if n := tr.idleTo(srv.Addr()); n != 0 {
		t.Fatalf("write answered by an error frame left %d idle connections, want 0", n)
	}

	// The writer sends nothing after its Eof chunk: the server would
	// read it as the connection's next request.
	st, err := tr.OpenStream(srv.Addr(), &Message{Type: MsgWriteBlockStream, Block: 2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(&Message{Type: MsgChunk, Eof: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Send(&Message{Type: MsgChunk, Seq: 1}, nil); err == nil {
		t.Error("Send after the Eof chunk was accepted")
	}
	st.Close()
	if n := tr.idleTo(srv.Addr()); n != 0 {
		t.Fatalf("a stream that refused a frame left %d idle connections, want 0", n)
	}
}

// After Server.Close, a kept-alive connection is not served: the
// request on it fails instead of reaching the handler.
func TestServerCloseStopsPooledConns(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 500)
	srv, served := echoServer(t, chunkReader(data, 128))
	tr := testTransport(t)
	addr := srv.Addr()
	if _, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := tr.OpenStream(addr, &Message{Type: MsgReadBlockStream}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(st); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if n := tr.idleTo(addr); n != 1 {
		t.Fatalf("idle connections = %d, want 1", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close dropped the idle connection at once: the client end sees
	// EOF, not silence.
	tr.mu.Lock()
	idle := tr.idle[addr][0]
	tr.mu.Unlock()
	if err := idle.nc.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := idle.br.Peek(1); !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection after Close: %v, want EOF", err)
	}
	before := served.Load()
	if _, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, time.Second); err == nil {
		t.Fatal("a closed server answered a call on a kept-alive connection")
	}
	if served.Load() != before {
		t.Fatal("a closed server's handler ran")
	}
	if st, err := tr.OpenStream(addr, &Message{Type: MsgReadBlockStream}, time.Second); err == nil {
		_, rerr := readAll(st)
		st.Close()
		if rerr == nil {
			t.Fatal("a closed server answered a read stream")
		}
	}
}

// A busy connection is closed when its exchange ends after
// Server.Close: the answer in flight arrives, the next request fails.
func TestServerCloseEndsBusyConnAfterExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	srv := Serve(ln, func(req *Message, _ []byte) (*Message, []byte) {
		if req.Path == "/slow" {
			close(entered)
			<-release
		}
		return &Message{Type: MsgOK}, nil
	}, time.Second)
	tr := testTransport(t)
	addr := srv.Addr()
	done := make(chan error, 1)
	go func() {
		_, _, err := tr.Call(addr, &Message{Type: MsgStatFile, Path: "/slow"}, nil, time.Second)
		done <- err
	}()
	<-entered
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("the exchange in flight at Close failed: %v", err)
	}
	if _, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, time.Second); err == nil {
		t.Fatal("a closed server answered a second request on the busy connection")
	}
}

// droppingServer serves each connection's first request and closes
// the connection dropAfter later without reading from it again, the way
// a server drops a connection that idled too long. Connections numbered
// hangFrom and later (counting from 1; 0 means none) get no answer.
func droppingServer(t *testing.T, hangFrom int64, dropAfter time.Duration) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns, served atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn, n int64) {
				defer nc.Close()
				req, payload, err := ReadFrame(nc)
				if err != nil {
					return
				}
				if hangFrom > 0 && n >= hangFrom {
					time.Sleep(2 * time.Second)
					return
				}
				served.Add(1)
				//lint:ignore errcheck the client side asserts
				_ = WriteFrame(nc, &Message{Type: MsgOK, Path: req.Path}, payload)
				time.Sleep(dropAfter)
			}(nc, conns.Add(1))
		}
	}()
	return ln.Addr().String(), &served
}

// A pooled connection the server has closed is redialled once, and the
// request is applied exactly once.
func TestTransportRedialsStaleConn(t *testing.T) {
	addr, served := droppingServer(t, 0, 0)
	dials := countDials(t, addr)
	tr := testTransport(t)
	for i := range 3 {
		if _, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, time.Second); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if s := served.Load(); s != 3 {
		t.Errorf("server applied %d requests, want 3", s)
	}
	if d := dials.Load(); d != 3 {
		t.Errorf("dials = %d, want 3 (one fresh, then one redial per stale connection)", d)
	}
}

// A read stream opened on a stale pooled connection redials on its
// first Recv and reads the block.
func TestTransportStreamRedialsStaleConn(t *testing.T) {
	data := bytes.Repeat([]byte("ab"), 300)
	srv, _ := echoServer(t, chunkReader(data, 64))
	tr := testTransport(t)
	addr := srv.Addr()
	if _, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	// Make the pooled connection stale: the server side closes it while
	// the server keeps serving new connections.
	srv.mu.Lock()
	for c := range srv.conns {
		c.close()
	}
	srv.mu.Unlock()
	dials := countDials(t, addr)
	st, err := tr.OpenStream(addr, &Message{Type: MsgReadBlockStream}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, err := readAll(st); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read over a redialled stream: %v", err)
	}
	if d := dials.Load(); d != 1 {
		t.Errorf("dials = %d, want exactly one redial", d)
	}
}

// The deadline budget holds on a reused connection: a server that
// answers once and then hangs on the same connection fails the second
// call within its timeout, and a timeout never triggers a redial.
func TestCallTimeoutOnReusedConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, _, err := ReadFrame(nc); err != nil {
			return
		}
		//lint:ignore errcheck the client side asserts
		_ = WriteFrame(nc, &Message{Type: MsgOK}, nil)
		//lint:ignore errcheck draining until the peer gives up
		_, _, _ = ReadFrame(nc)
		time.Sleep(2 * time.Second)
	}()
	addr := ln.Addr().String()
	dials := countDials(t, addr)
	tr := testTransport(t)
	if _, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	const timeout = 300 * time.Millisecond
	start := time.Now()
	_, _, err = tr.Call(addr, &Message{Type: MsgStatFile}, nil, timeout)
	elapsed := time.Since(start)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if elapsed > timeout+200*time.Millisecond {
		t.Fatalf("call took %v on a %v budget", elapsed, timeout)
	}
	if d := dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1: a timeout must not redial", d)
	}
}

// The redial of a stale connection is charged against the same budget
// as the rest of the call. The pooled connection fails 250ms into a
// 400ms budget; with a 100ms connect delay and a server that never
// answers the redialled connection, the call ends at ~400ms, not at
// 250ms plus a fresh 400ms.
func TestCallTimeoutCoversRedial(t *testing.T) {
	addr, _ := droppingServer(t, 2, 250*time.Millisecond)
	tr := testTransport(t)
	if _, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, time.Second); err != nil {
		t.Fatal(err)
	}

	const dialDelay = 100 * time.Millisecond
	const timeout = 400 * time.Millisecond
	orig := dialTimeout
	dialTimeout = func(network, a string, d time.Duration) (net.Conn, error) {
		time.Sleep(dialDelay)
		return orig(network, a, d)
	}
	t.Cleanup(func() { dialTimeout = orig })

	start := time.Now()
	_, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, timeout)
	elapsed := time.Since(start)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if elapsed > timeout+150*time.Millisecond {
		t.Fatalf("call took %v; the redial was not charged against the %v budget", elapsed, timeout)
	}
}

// A redial gets no more than what is left of the budget to connect in,
// and a redial that eats all of it still ends the call on time.
func TestCallTimeoutExpiredByRedial(t *testing.T) {
	addr, _ := droppingServer(t, 2, 100*time.Millisecond)
	tr := testTransport(t)
	if _, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, time.Second); err != nil {
		t.Fatal(err)
	}

	const timeout = 250 * time.Millisecond
	var start time.Time
	orig := dialTimeout
	dialTimeout = func(network, a string, d time.Duration) (net.Conn, error) {
		if left := timeout - time.Since(start); d > left+20*time.Millisecond {
			t.Errorf("redial allowance %v exceeds the %v left of the budget", d, left)
		}
		time.Sleep(d)
		return orig(network, a, d)
	}
	t.Cleanup(func() { dialTimeout = orig })

	start = time.Now()
	if _, _, err := tr.Call(addr, &Message{Type: MsgStatFile}, nil, timeout); err == nil {
		t.Fatal("expected an error")
	}
	if elapsed := time.Since(start); elapsed > timeout+200*time.Millisecond {
		t.Fatalf("call took %v, want ~%v", elapsed, timeout)
	}
}

// Concurrent calls and streams share one Transport: every exchange gets
// its own answer, connections are reused, and the pool stays capped.
func TestTransportConcurrentCallsAndStreams(t *testing.T) {
	data := bytes.Repeat([]byte("concurrent"), 100)
	srv, _ := echoServer(t, chunkReader(data, 256))
	dials := countDials(t, srv.Addr())
	tr := testTransport(t)
	const workers, rounds = 12, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				if (w+r)%2 == 0 {
					path := fmt.Sprintf("/w%d/r%d", w, r)
					resp, payload, err := tr.Call(srv.Addr(), &Message{Type: MsgStatFile, Path: path}, []byte(path), time.Second)
					if err != nil || resp.Path != path || string(payload) != path {
						errs <- fmt.Errorf("call %s: %v (answered %q)", path, err, payload)
						return
					}
					continue
				}
				st, err := tr.OpenStream(srv.Addr(), &Message{Type: MsgReadBlockStream}, time.Second)
				if err != nil {
					errs <- err
					return
				}
				got, err := readAll(st)
				st.Close()
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("stream: %v (%d bytes)", err, len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d := dials.Load(); d > workers {
		t.Errorf("%d exchanges over %d workers dialled %d times, want at most %d", workers*rounds, workers, d, workers)
	}
	if n := tr.idleTo(srv.Addr()); n > maxIdlePerAddr {
		t.Errorf("idle connections = %d, above the cap %d", n, maxIdlePerAddr)
	}
}
