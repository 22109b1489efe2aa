package datanode

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
)

// fakeNameNode accepts registrations and records received/deleted block
// reports, and can queue commands for the next heartbeat.
type fakeNameNode struct {
	srv *proto.Server

	mu        sync.Mutex
	nextID    proto.NodeID
	received  []proto.BlockID
	deleted   []proto.BlockID
	cmds      map[proto.NodeID][]proto.Command
	hbCount   int // full heartbeats
	deltas    int // delta heartbeats
	lastFull  []proto.BlockID
	deltaRecv []proto.BlockID
	deltaDel  []proto.BlockID
	askFull   bool // request a full-report resync on the next delta
}

func startFakeNN(t *testing.T) *fakeNameNode {
	t.Helper()
	f := &fakeNameNode{cmds: make(map[proto.NodeID][]proto.Command)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f.srv = proto.Serve(ln, f.handle, time.Second)
	t.Cleanup(func() { _ = f.srv.Close() })
	return f
}

func (f *fakeNameNode) handle(req *proto.Message, _ []byte) (*proto.Message, []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch req.Type {
	case proto.MsgRegister:
		id := f.nextID
		f.nextID++
		return &proto.Message{Type: proto.MsgOK, Node: id}, nil
	case proto.MsgHeartbeat:
		f.hbCount++
		f.lastFull = append([]proto.BlockID(nil), req.Blocks...)
		cmds := f.cmds[req.Node]
		delete(f.cmds, req.Node)
		return &proto.Message{Type: proto.MsgOK, Commands: cmds}, nil
	case proto.MsgHeartbeatDelta:
		f.deltas++
		f.deltaRecv = append(f.deltaRecv, req.Received...)
		f.deltaDel = append(f.deltaDel, req.Deleted...)
		cmds := f.cmds[req.Node]
		delete(f.cmds, req.Node)
		resp := &proto.Message{Type: proto.MsgOK, Commands: cmds}
		if f.askFull {
			resp.FullReport = true
			f.askFull = false
		}
		return resp, nil
	case proto.MsgBlockReceived:
		f.received = append(f.received, req.Block)
		return nil, nil
	case proto.MsgBlockDeleted:
		f.deleted = append(f.deleted, req.Block)
		return nil, nil
	default:
		return proto.ErrorMessage(errors.New("unexpected")), nil
	}
}

func (f *fakeNameNode) queue(node proto.NodeID, cmd proto.Command) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cmds[node] = append(f.cmds[node], cmd)
}

func (f *fakeNameNode) receivedBlocks() []proto.BlockID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]proto.BlockID(nil), f.received...)
}

func (f *fakeNameNode) deletedBlocks() []proto.BlockID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]proto.BlockID(nil), f.deleted...)
}

func startDN(t *testing.T, nn *fakeNameNode, compress bool) *DataNode {
	t.Helper()
	dn, err := Start(Config{
		NameNodeAddr:      nn.srv.Addr(),
		Rack:              0,
		CapacityBlocks:    16,
		HeartbeatInterval: 20 * time.Millisecond,
		CompressTransfers: compress,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = dn.Close() })
	return dn
}

func writeBlock(t *testing.T, addr string, id proto.BlockID, data []byte, sum uint32, pipeline []string) error {
	t.Helper()
	_, _, err := proto.Call(addr, &proto.Message{
		Type:     proto.MsgWriteBlock,
		Block:    id,
		Pipeline: pipeline,
		Length:   len(data),
		Checksum: sum,
	}, data, time.Second)
	return err
}

func readBlock(t *testing.T, addr string, id proto.BlockID) ([]byte, uint32, error) {
	t.Helper()
	resp, data, err := proto.Call(addr, &proto.Message{Type: proto.MsgReadBlock, Block: id}, nil, time.Second)
	if err != nil {
		return nil, 0, err
	}
	return data, resp.Checksum, nil
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Error("missing namenode addr accepted")
	}
	if _, err := Start(Config{NameNodeAddr: "x", CapacityBlocks: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Start(Config{NameNodeAddr: "127.0.0.1:1", CapacityBlocks: 1, Timeout: 100 * time.Millisecond}); err == nil {
		t.Error("unreachable namenode accepted")
	}
}

func TestWriteReadAndReport(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn, false)
	data := []byte("block contents")
	if err := writeBlock(t, dn.Addr(), 5, data, proto.ChunkChecksum(data), nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, sum, err := readBlock(t, dn.Addr(), 5)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) || sum != proto.ChunkChecksum(data) {
		t.Errorf("read = %q (sum %d), want %q (sum %d)", got, sum, data, proto.ChunkChecksum(data))
	}
	// The namenode heard about the block.
	recv := nn.receivedBlocks()
	if len(recv) != 1 || recv[0] != 5 {
		t.Errorf("received reports = %v, want [5]", recv)
	}
	if dn.ID() != 0 {
		t.Errorf("ID = %d, want 0 (assigned by namenode)", dn.ID())
	}
}

func TestWriteRejectsBadChecksum(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn, false)
	data := []byte("corrupted in flight")
	if err := writeBlock(t, dn.Addr(), 9, data, proto.ChunkChecksum(data)+1, nil); err == nil {
		t.Fatal("bad-checksum write accepted")
	}
	if dn.HasBlock(9) {
		t.Error("corrupt block stored anyway")
	}
	if len(nn.receivedBlocks()) != 0 {
		t.Error("corrupt block reported to namenode")
	}
}

func TestPipelineForwarding(t *testing.T) {
	nn := startFakeNN(t)
	dn1 := startDN(t, nn, false)
	dn2 := startDN(t, nn, false)
	data := []byte("pipelined")
	if err := writeBlock(t, dn1.Addr(), 3, data, proto.ChunkChecksum(data), []string{dn2.Addr()}); err != nil {
		t.Fatalf("pipeline write: %v", err)
	}
	if !dn1.HasBlock(3) || !dn2.HasBlock(3) {
		t.Error("pipeline did not deliver to both nodes")
	}
	got, _, err := readBlock(t, dn2.Addr(), 3)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("tail read = %q, %v", got, err)
	}
}

func TestPipelineFailureKeepsLocalCopy(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn, false)
	data := []byte("partial pipeline")
	err := writeBlock(t, dn.Addr(), 4, data, proto.ChunkChecksum(data), []string{"127.0.0.1:1"})
	if err == nil {
		t.Fatal("pipeline to dead node reported success")
	}
	if !dn.HasBlock(4) {
		t.Error("local copy dropped on pipeline failure")
	}
}

func TestReplicateCommandCompresses(t *testing.T) {
	nn := startFakeNN(t)
	src := startDN(t, nn, true) // compression on
	dst := startDN(t, nn, true)
	data := bytes.Repeat([]byte("compressible "), 500)
	if err := writeBlock(t, src.Addr(), 11, data, proto.ChunkChecksum(data), nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	nn.queue(src.ID(), proto.Command{Kind: proto.CmdReplicate, Block: 11, Target: dst.Addr()})
	deadline := time.Now().Add(3 * time.Second)
	for !dst.HasBlock(11) {
		if time.Now().After(deadline) {
			t.Fatal("replicate command never executed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, _, err := readBlock(t, dst.Addr(), 11)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("replicated data mismatch: %v", err)
	}
}

func TestDeleteCommandReports(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn, false)
	data := []byte("to be deleted")
	if err := writeBlock(t, dn.Addr(), 13, data, proto.ChunkChecksum(data), nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	nn.queue(dn.ID(), proto.Command{Kind: proto.CmdDelete, Block: 13})
	deadline := time.Now().Add(3 * time.Second)
	for dn.HasBlock(13) {
		if time.Now().After(deadline) {
			t.Fatal("delete command never executed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	deadline = time.Now().Add(time.Second)
	for len(nn.deletedBlocks()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deletion never reported")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestUnknownBlockRead(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn, false)
	if _, _, err := readBlock(t, dn.Addr(), 99); err == nil {
		t.Error("read of unknown block succeeded")
	}
}

func TestDataNodeCloseIdempotent(t *testing.T) {
	nn := startFakeNN(t)
	dn := startDN(t, nn, false)
	if err := dn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := dn.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close err = %v, want ErrClosed", err)
	}
}
