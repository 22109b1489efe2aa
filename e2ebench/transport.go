package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/proto"
)

// Traced transports: thin wrappers around the real proto.Call and
// proto.OpenStream, and around a datanode's block store, that record a
// span per call. They are passed in through the program's public seams
// (client.WithCall/WithOpenStream, datanode.Config.{Call,OpenStream,
// WrapStore}); the program itself is unchanged.

// spanKey ties a transport span to the operation it served.
func spanKey(m *proto.Message) string {
	if m.Path != "" {
		return m.Path
	}
	if m.Block != 0 {
		return fmt.Sprintf("blk:%d", m.Block)
	}
	return ""
}

// clientTransport is one client's traced transport. cur holds the span
// ID of the client operation in progress, so calls made by the client's
// read-ahead workers are parented to it.
type clientTransport struct {
	tr  *tracer
	cur atomic.Int64
}

func (ct *clientTransport) call(addr string, req *proto.Message, payload []byte, timeout time.Duration) (*proto.Message, []byte, error) {
	start := ct.tr.now()
	resp, rp, err := proto.Call(addr, req, payload, timeout)
	ct.tr.add(span{
		Parent: ct.cur.Load(), Name: "rpc." + string(req.Type), Key: spanKey(req),
		Node: "client", Target: addr, Start: start, End: ct.tr.now(), Err: err != nil,
	})
	return resp, rp, err
}

func (ct *clientTransport) open(addr string, open *proto.Message, timeout time.Duration) (proto.BlockStream, error) {
	name := "stream.read"
	if open.Type == proto.MsgWriteBlockStream {
		name = "stream.write"
	}
	return openTraced(ct.tr, span{Parent: ct.cur.Load(), Name: name, Node: "client"}, addr, open, timeout)
}

// nodeTransport is one datanode's traced transport and store wrapper.
// addr is the node's data address, known once the node has started.
type nodeTransport struct {
	tr   *tracer
	addr atomic.Pointer[string]
}

func (nt *nodeTransport) node() string {
	if a := nt.addr.Load(); a != nil {
		return *a
	}
	return ""
}

func (nt *nodeTransport) call(addr string, req *proto.Message, payload []byte, timeout time.Duration) (*proto.Message, []byte, error) {
	start := nt.tr.now()
	resp, rp, err := proto.Call(addr, req, payload, timeout)
	name := "rpc." + string(req.Type)
	if req.Type == proto.MsgWriteBlock {
		// The only one-shot block write a datanode makes is a
		// replication transfer ordered by the namenode.
		name = "replicate.transfer"
	}
	nt.tr.add(span{
		Name: name, Key: spanKey(req), Node: nt.node(), Target: addr,
		Start: start, End: nt.tr.now(), Err: err != nil, UserBytes: int64(len(payload)),
	})
	return resp, rp, err
}

func (nt *nodeTransport) open(addr string, open *proto.Message, timeout time.Duration) (proto.BlockStream, error) {
	return openTraced(nt.tr, span{Name: "pipeline.hop", Node: nt.node()}, addr, open, timeout)
}

func (nt *nodeTransport) wrapStore(s datanode.BlockStore) datanode.BlockStore {
	return &tracedStore{BlockStore: s, nt: nt}
}

// openTraced opens a real stream and returns it wrapped so that the span
// (open to Close) is recorded when the caller closes it.
func openTraced(tr *tracer, s span, addr string, open *proto.Message, timeout time.Duration) (proto.BlockStream, error) {
	s.Key, s.Target, s.Start = spanKey(open), addr, tr.now()
	st, err := proto.OpenStream(addr, open, timeout)
	if err != nil {
		s.End, s.Err = tr.now(), true
		tr.add(s)
		return nil, err
	}
	ts := &tracedStream{inner: st, tr: tr, s: s}
	ts.count(open, nil)
	return ts, nil
}

// tracedStream counts frames and wire bytes and records its span on
// Close. Like every BlockStream it belongs to one goroutine.
type tracedStream struct {
	inner proto.BlockStream
	tr    *tracer
	s     span
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (b *byteCounter) Write(p []byte) (int, error) {
	*b += byteCounter(len(p))
	return len(p), nil
}

// count adds one frame's wire size (re-encoded exactly as proto frames
// it) and, for chunks, its payload as user bytes.
func (ts *tracedStream) count(msg *proto.Message, payload []byte) {
	if !ts.tr.enabled() {
		return
	}
	var n byteCounter
	if err := proto.WriteFrame(&n, msg, payload); err != nil {
		return
	}
	ts.s.WireBytes += int64(n)
	ts.s.Frames++
	if msg.Type == proto.MsgChunk {
		ts.s.UserBytes += int64(len(payload))
	}
}

func (ts *tracedStream) Send(msg *proto.Message, payload []byte) error {
	err := ts.inner.Send(msg, payload)
	if err != nil {
		ts.s.Err = true
		return err
	}
	ts.count(msg, payload)
	return nil
}

func (ts *tracedStream) Recv() (*proto.Message, []byte, error) {
	msg, payload, err := ts.inner.Recv()
	if err != nil {
		ts.s.Err = true
		return msg, payload, err
	}
	ts.count(msg, payload)
	return msg, payload, nil
}

func (ts *tracedStream) Close() error {
	err := ts.inner.Close()
	ts.s.End = ts.tr.now()
	ts.tr.add(ts.s)
	return err
}

// tracedStore times the block store calls of one datanode.
type tracedStore struct {
	datanode.BlockStore
	nt *nodeTransport
}

func (s *tracedStore) record(name string, id proto.BlockID, start int64, n int, err error) {
	s.nt.tr.add(span{
		Name: name, Key: fmt.Sprintf("blk:%d", id), Node: s.nt.node(),
		Start: start, End: s.nt.tr.now(), UserBytes: int64(n), Err: err != nil,
	})
}

func (s *tracedStore) Put(id proto.BlockID, data []byte) error {
	start := s.nt.tr.now()
	err := s.BlockStore.Put(id, data)
	s.record("store.put", id, start, len(data), err)
	return err
}

func (s *tracedStore) Get(id proto.BlockID) ([]byte, error) {
	start := s.nt.tr.now()
	data, err := s.BlockStore.Get(id)
	s.record("store.get", id, start, len(data), err)
	return data, err
}

func (s *tracedStore) Delete(id proto.BlockID) bool {
	start := s.nt.tr.now()
	ok := s.BlockStore.Delete(id)
	s.record("store.delete", id, start, 0, nil)
	return ok
}
