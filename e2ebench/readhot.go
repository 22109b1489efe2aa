package main

import (
	"fmt"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/trace"
)

// read-hot: a small dataset read by two closed-loop clients with the
// seeded flashcrowd scenario's Zipf skew, ~5% single-block creates, and
// an optimizer period (clients paused) every fixed number of ops.
const (
	rhFiles       = 100
	rhBlocks      = 16 // blocks per dataset file
	rhBlockSize   = 16 << 10
	rhPhaseOps    = 400 // ops per phase, both clients together
	rhCreateEvery = 20  // every 20th op of a client is a create
)

type readHot struct {
	seed   uint64
	files  []string
	data   map[string][]byte
	blocks map[string][]core.BlockID
	// ops is the file index of each read, in arrival order of the
	// flashcrowd trace; client c takes ops c, c+2, c+4, ...
	ops     []int
	next    [2]int
	created map[string][]byte // files the clients created
	mu      sync.Mutex        // guards created
	serving *core.Placement   // placement that serves the current phase
	nBlocks int
}

func newReadHot(seed uint64) (liveWorkload, error) {
	tr, err := trace.GenerateScenario(trace.ScenarioFlashCrowd, trace.ScenarioConfig{
		Seed: seed, Files: rhFiles, Hours: 24, JobsPerHour: 2000, PeriodHours: 6,
	})
	if err != nil {
		return nil, fmt.Errorf("read-hot trace: %w", err)
	}
	w := &readHot{
		seed: seed, data: make(map[string][]byte), blocks: make(map[string][]core.BlockID),
		created: make(map[string][]byte),
	}
	for _, j := range tr.Jobs {
		w.ops = append(w.ops, int(j.File)-1)
	}
	for i := 0; i < rhFiles; i++ {
		p := fmt.Sprintf("/rh/f%03d", i)
		w.files = append(w.files, p)
		w.data[p] = content(seed, p, rhBlocks*rhBlockSize)
	}
	return w, nil
}

func (w *readHot) config(seed uint64) clusterConfig {
	return clusterConfig{Nodes: 8, Racks: 4, BlockSize: rhBlockSize, Capacity: 4096, WindowBucket: time.Second, Seed: seed}
}

func (w *readHot) primary() string { return opRead }

// load writes the dataset with one client, so block IDs and placement
// repeat exactly for a seed.
func (w *readHot) load(r *liveRun) error {
	if err := loadFiles(r, w.files, w.data, w.blocks, rhBlocks); err != nil {
		return err
	}
	w.nBlocks = rhFiles * rhBlocks
	return nil
}

// loadFiles creates files in order with client 0 and derives each
// file's block IDs from the namenode's sequential allocation, checking
// the derivation against the placement and the first and last file's
// locations.
func loadFiles(r *liveRun, files []string, data map[string][]byte, blocks map[string][]core.BlockID, perFile int) error {
	c := r.clients[0]
	for _, p := range files {
		if err := c.Create(p, data[p], 0); err != nil {
			return fmt.Errorf("load %s: %w", p, err)
		}
	}
	next := core.BlockID(1)
	for _, p := range files {
		ids := make([]core.BlockID, perFile)
		for i := range ids {
			ids[i] = next
			next++
		}
		blocks[p] = ids
	}
	pl, err := r.cl.nn.PlacementClone()
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if pl.NumBlocks() != len(files)*perFile {
		return fmt.Errorf("load: namenode holds %d blocks, want %d", pl.NumBlocks(), len(files)*perFile)
	}
	for _, p := range []string{files[0], files[len(files)-1]} {
		locs, err := c.Locations(p)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		got := blockIDs(locs)
		for i, id := range blocks[p] {
			if i >= len(got) || got[i] != proto.BlockID(id) {
				return fmt.Errorf("load: %s has blocks %v, want %v", p, got, blocks[p])
			}
		}
	}
	return nil
}

func (w *readHot) measure(r *liveRun, d time.Duration) error {
	stop := time.Now().Add(d)
	for time.Now().Before(stop) {
		if w.serving == nil {
			pl, err := r.cl.nn.PlacementClone()
			if err != nil {
				return err
			}
			w.serving = pl
		}
		var counts [2]map[core.BlockID]int64
		var wg sync.WaitGroup
		for ci := 0; ci < 2; ci++ {
			counts[ci] = make(map[core.BlockID]int64)
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				w.clientPhase(r, ci, counts[ci])
			}(ci)
		}
		wg.Wait()
		merged := counts[0]
		for id, n := range counts[1] {
			merged[id] += n
		}
		r.scorePhase(w.serving, merged)
		r.phaseCounts = append(r.phaseCounts, merged)
		w.mu.Lock()
		w.nBlocks = rhFiles*rhBlocks + len(w.created)
		w.mu.Unlock()
		opts := liveOptimizer(w.nBlocks)
		r.period(opts, true, nil)
		pl, err := r.cl.nn.PlacementClone()
		if err != nil {
			return err
		}
		if r.tr.enabled() {
			if t, err := alg3Time(pl, opts); err == nil {
				r.periods[len(r.periods)-1].alg3 = t
			}
		}
		w.serving = pl
	}
	return nil
}

// clientPhase runs client ci's share of one phase.
func (w *readHot) clientPhase(r *liveRun, ci int, counts map[core.BlockID]int64) {
	for k := 0; k < rhPhaseOps/2; k++ {
		n := w.next[ci]
		w.next[ci]++
		if (n+1)%rhCreateEvery == 0 {
			p := fmt.Sprintf("/rh/new/c%d-%d", ci, n)
			data := content(w.seed, p, rhBlockSize)
			if r.create(ci, p, data) {
				w.mu.Lock()
				w.created[p] = data
				w.mu.Unlock()
			}
			continue
		}
		p := w.files[w.ops[(2*n+ci)%len(w.ops)]]
		r.read(ci, p, w.data[p])
		for _, id := range w.blocks[p] {
			counts[id]++
		}
	}
}

func (w *readHot) finalFiles() map[string][]byte {
	out := make(map[string][]byte, len(w.data)+len(w.created))
	for p, d := range w.data {
		out[p] = d
	}
	w.mu.Lock()
	for p, d := range w.created {
		out[p] = d
	}
	w.mu.Unlock()
	return out
}

// liveOptimizer is the Algorithm-5 configuration of every live period:
// rack-aware search, a replication budget β of 3.25 replicas per block
// (above the 3× minimum), and K = 1000 replica copies per period, which
// the 8 datanodes carry out well within a period's spacing.
func liveOptimizer(blocks int) core.OptimizerOptions {
	return core.OptimizerOptions{
		Epsilon:             0.1,
		RackAware:           true,
		ReplicationBudget:   blocks*13/4 + 1,
		MaxReplicationMoves: 1000,
		MaxSearchIterations: 20000,
	}
}
