package main

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/dfs/client"
	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/namenode"
	"aurora/internal/dfs/proto"
)

// clusterConfig sizes one in-process loopback cluster: a namenode and
// datanodes with memory stores spread round-robin over racks, every
// file written with 3 replicas over 2 racks.
type clusterConfig struct {
	Nodes, Racks int
	BlockSize    int
	Capacity     int // blocks per datanode
	// WindowBucket × 2 is the namenode usage monitor's window W.
	WindowBucket time.Duration
	Seed         uint64
}

// cluster is a running namenode plus datanodes. With a tracer, every
// datanode's outbound calls, downstream streams and store are traced.
type cluster struct {
	cfg   clusterConfig
	tr    *tracer
	nn    *namenode.NameNode
	dns   []*datanode.DataNode
	nodes []*nodeTransport
}

func startCluster(cfg clusterConfig, tr *tracer) (*cluster, error) {
	nn, err := namenode.Start(namenode.Config{
		ExpectedNodes:      cfg.Nodes,
		Racks:              cfg.Racks,
		DefaultReplication: 3,
		DefaultMinRacks:    2,
		BlockSize:          cfg.BlockSize,
		Placer:             namenode.AuroraPlacer{},
		Seed:               cfg.Seed,
		WindowBucket:       cfg.WindowBucket,
		WindowBuckets:      2,
	})
	if err != nil {
		return nil, fmt.Errorf("start namenode: %w", err)
	}
	c := &cluster{cfg: cfg, tr: tr, nn: nn}
	for i := 0; i < cfg.Nodes; i++ {
		dc := datanode.Config{
			NameNodeAddr:   nn.Addr(),
			Rack:           i % cfg.Racks,
			CapacityBlocks: cfg.Capacity,
		}
		var nt *nodeTransport
		if tr != nil {
			nt = &nodeTransport{tr: tr}
			dc.Call, dc.OpenStream, dc.WrapStore = nt.call, nt.open, nt.wrapStore
		}
		dn, err := datanode.Start(dc)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("start datanode %d: %w", i, err), c.close())
		}
		if nt != nil {
			addr := dn.Addr()
			nt.addr.Store(&addr)
		}
		c.dns = append(c.dns, dn)
		c.nodes = append(c.nodes, nt)
	}
	if err := nn.WaitReady(10 * time.Second); err != nil {
		return nil, errors.Join(err, c.close())
	}
	return c, nil
}

// newClient makes a client of this cluster. With a tracer it gets its
// own traced transport (both seams set, so the streamed data path stays
// on); without one it uses the real transports untouched.
func (c *cluster) newClient(seed uint64) (*client.Client, *clientTransport) {
	opts := []client.Option{
		client.WithBlockSize(c.cfg.BlockSize),
		client.WithSeed(seed),
		client.WithTimeout(opDeadline),
	}
	if c.tr == nil {
		return client.New(c.nn.Addr(), opts...), nil
	}
	ct := &clientTransport{tr: c.tr}
	opts = append(opts, client.WithCall(ct.call), client.WithOpenStream(ct.open))
	return client.New(c.nn.Addr(), opts...), ct
}

// close stops the datanodes, then the namenode.
func (c *cluster) close() error {
	var errs []error
	for _, dn := range c.dns {
		if err := dn.Close(); err != nil && !errors.Is(err, datanode.ErrClosed) {
			errs = append(errs, err)
		}
	}
	if err := c.nn.Close(); err != nil && !errors.Is(err, namenode.ErrClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// waitConverged polls NameNode.Converged every `every` until it holds
// and returns how long that took. Converged scans the namespace under
// the namenode lock, so only small namespaces are polled at pollEvery.
func (c *cluster) waitConverged(timeout, every time.Duration) (time.Duration, error) {
	start := time.Now()
	for !c.nn.Converged() {
		if time.Since(start) > timeout {
			return time.Since(start), fmt.Errorf("not converged after %v", timeout)
		}
		time.Sleep(every)
	}
	return time.Since(start), nil
}

// checkHealth requires that no block is missing, under-replicated or
// under-spread.
func (c *cluster) checkHealth() error {
	h := c.nn.Health()
	if h.UnderReplicatedBlocks > 0 || h.UnderSpreadBlocks > 0 || h.DeadNodes > 0 {
		return fmt.Errorf("fsck: %d under-replicated, %d under-spread blocks, %d dead nodes",
			h.UnderReplicatedBlocks, h.UnderSpreadBlocks, h.DeadNodes)
	}
	return nil
}

// blockIDs lists the block IDs of a file's locations.
func blockIDs(locs []proto.BlockLocation) []proto.BlockID {
	out := make([]proto.BlockID, len(locs))
	for i, l := range locs {
		out[i] = l.Block
	}
	return out
}
