package client

import (
	"fmt"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
)

// streaming reports whether the chunked data path (DESIGN.md §15) is in
// effect for block I/O. It needs a positive chunk size AND a transport
// that can actually carry streams: either the real proto.OpenStream
// default, or an explicit WithOpenStream override. A test that stubbed
// the one-shot transport with WithCall (and supplied no stream
// transport) keeps the legacy one-shot path, so the stub still sees
// every block exchange.
func (c *Client) streaming() bool {
	return c.chunkSize > 0 && (c.openOverridden || !c.callOverridden)
}

// writeBlockStreamed pushes one block to the pipeline head as sequenced
// chunks and waits for the tail ack relayed back up the chain. The head
// forwards chunk i downstream while receiving chunk i+1, so the client
// spends ~1 block of bandwidth regardless of the replication factor and
// the pipeline depth only adds per-chunk latency, not per-block hops.
func (c *Client) writeBlockStreamed(block proto.BlockID, pipeline []string, data []byte) error {
	open := &proto.Message{
		Type:      proto.MsgWriteBlockStream,
		Block:     block,
		Pipeline:  pipeline[1:],
		Length:    len(data),
		Checksum:  proto.ChunkChecksum(data),
		ChunkSize: c.chunkSize,
	}
	st, err := c.openStream(pipeline[0], open, c.timeout)
	if err != nil {
		return fmt.Errorf("client: pipeline head %s: %w", pipeline[0], err)
	}
	defer st.Close()
	for seq, off := 0, 0; ; seq++ {
		end := off + c.chunkSize
		if end > len(data) {
			end = len(data)
		}
		part := data[off:end]
		msg := &proto.Message{
			Type: proto.MsgChunk, Block: block,
			Seq: seq, Offset: off, Eof: end == len(data),
			Checksum: proto.ChunkChecksum(part),
		}
		if err := st.Send(msg, part); err != nil {
			return fmt.Errorf("client: pipeline head %s: %w", pipeline[0], err)
		}
		if msg.Eof {
			break
		}
		off = end
	}
	ack, _, err := st.Recv()
	if err != nil {
		return fmt.Errorf("client: pipeline head %s: %w", pipeline[0], err)
	}
	if ack.Type != proto.MsgStreamAck || ack.Offset != len(data) {
		return fmt.Errorf("client: block %d stream ack %q at offset %d, want %q at %d",
			block, ack.Type, ack.Offset, proto.MsgStreamAck, len(data))
	}
	return nil
}

// readBlockStreamed drains one block over chunked read streams, failing
// over between replicas at chunk granularity: bytes already verified
// stay in the buffer and the next replica is opened at the first
// missing offset, so a replica lost mid-stream costs only the tail.
func (c *Client) readBlockStreamed(loc proto.BlockLocation, order []int) ([]byte, error) {
	var buf []byte
	var lastErr error
	for _, i := range order {
		addr := loc.Addresses[i]
		err := c.streamTail(addr, loc.Block, &buf)
		if err == nil {
			return buf, nil
		}
		lastErr = err
		metrics.Default.Counter("dfs.client.read_failover").Inc()
	}
	return nil, fmt.Errorf("%w: %w", ErrNoReplica, lastErr)
}

// streamTail fetches the missing tail of a block (everything past
// len(*buf)) from one replica, appending only chunks whose checksums
// verify. On error the buffer keeps every verified byte so the caller
// can resume on another replica.
func (c *Client) streamTail(addr string, block proto.BlockID, buf *[]byte) error {
	open := &proto.Message{
		Type: proto.MsgReadBlockStream, Block: block,
		ChunkSize: c.chunkSize, Offset: len(*buf),
	}
	st, err := c.openStream(addr, open, c.timeout)
	if err != nil {
		return err
	}
	defer st.Close()
	for {
		msg, chunk, err := st.Recv()
		if err != nil {
			return err
		}
		if msg.Type != proto.MsgChunk {
			return fmt.Errorf("client: unexpected frame %q mid-read from %s", msg.Type, addr)
		}
		if msg.Checksum != proto.ChunkChecksum(chunk) {
			return fmt.Errorf("%w: block %d chunk %d from %s", ErrChecksum, block, msg.Seq, addr)
		}
		if msg.Offset != len(*buf) {
			return fmt.Errorf("client: block %d chunk at offset %d from %s, want %d", block, msg.Offset, addr, len(*buf))
		}
		if *buf == nil && msg.Length > 0 {
			*buf = make([]byte, 0, msg.Length)
		}
		*buf = append(*buf, chunk...)
		if msg.Eof {
			return nil
		}
	}
}
