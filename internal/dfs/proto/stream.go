package proto

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// castagnoli is the CRC32C table shared by every chunk checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChunkChecksum is the CRC32C (Castagnoli) over one chunk payload — the
// per-chunk integrity check carried in the Checksum field of every
// MsgChunk frame, and the same polynomial the block store and the
// whole-block Checksum fields use.
func ChunkChecksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// DefaultChunkSize is the payload size of one MsgChunk frame when the
// caller does not pick one. 128 KiB keeps per-chunk framing overhead
// (~100 bytes of JSON header) under 0.1% while still giving the write
// pipeline enough chunks per block to overlap hops.
const DefaultChunkSize = 128 << 10

// BlockStream is one side of a chunked data-path exchange: an ordered,
// bidirectional sequence of frames on a single connection, opened by a
// MsgWriteBlockStream or MsgReadBlockStream frame and carried as
// MsgChunk / MsgStreamAck frames (DESIGN.md §15). Implementations are
// not safe for concurrent use; each stream belongs to one goroutine.
type BlockStream interface {
	// Send writes one frame. Each Send refreshes the connection
	// deadline, so the timeout bounds per-frame progress rather than
	// the whole (arbitrarily large) block transfer.
	Send(msg *Message, payload []byte) error
	// Recv reads one frame. A MsgError frame is converted into a
	// *RemoteError, mirroring Call.
	Recv() (*Message, []byte, error)
	// Close ends the stream. A settled stream's connection carries the
	// next exchange (DESIGN.md §15.1); any other is torn down, and the
	// peer observes that as a mid-stream failure.
	Close() error
}

// OpenStreamFunc is the signature of OpenStream. Components take an
// OpenStreamFunc so the fault-injection harness can interpose on
// streaming data-path traffic the same way CallFunc interposes on
// one-shot RPCs; the zero value of any config falls back to OpenStream.
type OpenStreamFunc func(addr string, open *Message, timeout time.Duration) (BlockStream, error)

// Errors for frames a stream refuses to carry.
var (
	errStreamClosed = errors.New("proto: stream closed")
	errStreamEnded  = errors.New("proto: frame after the end of the stream")
)

// Stream is the concrete BlockStream over a connection. It tracks
// whether the exchange has settled: the last frame was the terminal one
// travelling from server to opener — chunk{Eof} on a read stream,
// stream_ack after the writer's Eof chunk on a write stream — and
// nothing went wrong on the way. Only a settled stream leaves its
// connection open for the next exchange.
type Stream struct {
	c       *conn
	timeout time.Duration
	m       *streamMetrics
	kind    MsgType // the opening frame's type

	// Opener side only: the Transport the connection returns to, and
	// what a single redial of a stale pooled connection resends.
	opener    bool
	tr        *Transport
	addr      string
	open      *Message
	mark      int64 // c.nread when the opening frame went out
	redialled bool

	frames   int  // frames sent or received after the opening frame
	eofChunk bool // write streams: the writer's Eof chunk has crossed
	settled  bool
	broken   bool // error, error frame or refused frame: never reuse
	closed   bool
}

func newStream(c *conn, kind MsgType, timeout time.Duration, m *streamMetrics) *Stream {
	return &Stream{c: c, timeout: timeout, m: m, kind: kind}
}

// usable refuses frames on a closed stream and after the terminal
// frame: any frame past it would reach the peer's next exchange.
func (s *Stream) usable() error {
	if s.closed {
		return errStreamClosed
	}
	if s.settled {
		s.broken = true
		return errStreamEnded
	}
	return nil
}

// note advances the settle state machine past one frame that crossed
// the stream; sent says this side sent it.
func (s *Stream) note(msg *Message, sent bool) {
	if msg.Type == MsgError {
		s.broken = true
		return
	}
	toOpener := sent != s.opener
	switch s.kind {
	case MsgReadBlockStream:
		s.settled = toOpener && msg.Type == MsgChunk && msg.Eof
	case MsgWriteBlockStream:
		if !toOpener && msg.Type == MsgChunk && msg.Eof {
			s.eofChunk = true
		}
		s.settled = toOpener && s.eofChunk && msg.Type == MsgStreamAck
	}
}

// reusable reports whether the connection may carry another exchange.
func (s *Stream) reusable() bool { return s.settled && !s.broken && !s.closed }

// handBack ends a server-side stream once its handler has returned and
// reports whether the server may read the connection's next request.
func (s *Stream) handBack() bool {
	ok := s.reusable()
	s.closed = true
	return ok
}

// Send implements BlockStream. The opener sends nothing after its last
// frame — the opening frame of a read stream, the Eof chunk of a write
// stream — since the server would read it as its next request.
func (s *Stream) Send(msg *Message, payload []byte) error {
	if err := s.usable(); err != nil {
		return err
	}
	if s.opener && (s.kind == MsgReadBlockStream || s.eofChunk) {
		s.broken = true
		return errStreamEnded
	}
	n, err := s.write(msg, payload)
	if err != nil {
		return err
	}
	s.frames++
	if msg.Type == MsgChunk {
		s.m.sendChunks.Inc()
		s.m.sendBytes.Add(int64(n))
	}
	s.note(msg, true)
	return nil
}

func (s *Stream) write(msg *Message, payload []byte) (int, error) {
	if err := s.c.nc.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		s.broken = true
		return 0, fmt.Errorf("proto: stream set deadline: %w", err)
	}
	n, err := writeFrame(s.c.nc, msg, payload)
	if err != nil {
		s.broken = true
	}
	return n, err
}

// Recv implements BlockStream.
func (s *Stream) Recv() (*Message, []byte, error) {
	if err := s.usable(); err != nil {
		return nil, nil, err
	}
	msg, payload, n, err := s.read()
	if err != nil && s.canRedial(err) {
		if err = s.redial(); err == nil {
			msg, payload, n, err = s.read()
		}
	}
	if err != nil {
		s.broken = true
		return nil, nil, err
	}
	s.frames++
	if msg.Type == MsgChunk {
		s.m.recvChunks.Inc()
		s.m.recvBytes.Add(int64(n))
	}
	s.note(msg, false)
	if err := msg.AsError(); err != nil {
		return nil, nil, err
	}
	return msg, payload, nil
}

func (s *Stream) read() (*Message, []byte, int, error) {
	if err := s.c.nc.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return nil, nil, 0, fmt.Errorf("proto: stream set deadline: %w", err)
	}
	return readFrame(s.c.br)
}

// sendOpen writes the opening frame, redialling once if the pooled
// connection it went out on turns out to be stale.
func (s *Stream) sendOpen() error {
	s.mark = s.c.nread
	_, err := s.write(s.open, nil)
	if err != nil && s.canRedial(err) {
		err = s.redial()
	}
	return err
}

// canRedial applies the redial rule (DESIGN.md §15.4) to a stream: an
// opener whose pooled connection failed before any response byte
// arrived, having sent nothing but the opening frame, may redial once.
// On a read stream that covers the first Recv, since the opening frame
// is all the opener ever sends; a write stream redials only while
// sending the opening frame itself.
func (s *Stream) canRedial(err error) bool {
	return s.opener && !s.redialled && s.frames == 0 && s.c.stale(err, s.mark)
}

// redial replaces the stale connection with a fresh one and resends the
// opening frame on it.
func (s *Stream) redial() error {
	//lint:ignore errcheck stale connection; the redial outcome is the one to report
	_ = s.c.close()
	s.redialled = true
	c, err := s.tr.dial(s.addr, time.Now().Add(s.timeout))
	if err != nil {
		return err
	}
	s.c, s.broken = c, false
	s.mark = c.nread
	_, err = s.write(s.open, nil)
	return err
}

// Close implements BlockStream. A settled opener stream returns its
// connection to the Transport; a server-side stream is handed back by
// the server when its handler returns. Everything else closes the
// connection. Closing twice is a no-op.
func (s *Stream) Close() error {
	if s.closed {
		return nil
	}
	reuse := s.reusable() && s.tr != nil
	s.closed = true
	if reuse {
		s.tr.put(s.addr, s.c)
		return nil
	}
	if err := s.c.close(); err != nil {
		return fmt.Errorf("proto: stream close: %w", err)
	}
	return nil
}

// OpenStream sends the opening frame to addr over the process-wide
// Transport — a kept-alive connection when one is idle, else a fresh
// dial — and returns the live stream. The caller owns the stream and
// must Close it. The timeout bounds the dial and then each subsequent
// frame exchange.
func OpenStream(addr string, open *Message, timeout time.Duration) (BlockStream, error) {
	return defaultTransport.OpenStream(addr, open, timeout)
}
