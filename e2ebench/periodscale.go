package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/trace"
)

// period-scale: a namenode holding a large namespace of tiny blocks.
// The main goroutine replays the seeded diurnal scenario one trace hour
// per phase as Locations accesses, then runs an optimizer period; a
// second, closed-loop client issues Locations lookups throughout and
// measures them, so lookups queued behind a period show in the tail.
const (
	psFiles     = 1000
	psBlocks    = 8 // blocks per file: 8000 blocks
	psBlockSize = 64
)

type periodScale struct {
	seed   uint64
	files  []string
	data   map[string][]byte
	blocks map[string][]core.BlockID
	// hours holds the file index of each job, per trace hour; phase h
	// replays hour h (wrapping around).
	hours  [][]int
	phase  int
	mirror *core.Placement // the benchmark's copy of the desired placement
}

func newPeriodScale(seed uint64) (liveWorkload, error) {
	tr, err := trace.GenerateScenario(trace.ScenarioDiurnal, trace.ScenarioConfig{
		Seed: seed, Files: psFiles, Hours: 240, JobsPerHour: 40, PeriodHours: 24,
	})
	if err != nil {
		return nil, fmt.Errorf("period-scale trace: %w", err)
	}
	w := &periodScale{seed: seed, data: make(map[string][]byte), blocks: make(map[string][]core.BlockID)}
	w.hours = make([][]int, 240)
	for _, j := range tr.Jobs {
		h := int(j.Arrival / trace.TicksPerHour)
		w.hours[h] = append(w.hours[h], int(j.File)-1)
	}
	for i := 0; i < psFiles; i++ {
		p := fmt.Sprintf("/ps/f%05d", i)
		w.files = append(w.files, p)
		w.data[p] = content(seed, p, psBlocks*psBlockSize)
	}
	return w, nil
}

func (w *periodScale) config(seed uint64) clusterConfig {
	return clusterConfig{Nodes: 8, Racks: 4, BlockSize: psBlockSize, Capacity: 16384, WindowBucket: 2 * time.Second, Seed: seed}
}

func (w *periodScale) primary() string { return opLookup }

func (w *periodScale) load(r *liveRun) error {
	return loadFiles(r, w.files, w.data, w.blocks, psBlocks)
}

func (w *periodScale) measure(r *liveRun, d time.Duration) error {
	if w.mirror == nil {
		pl, err := r.cl.nn.PlacementClone()
		if err != nil {
			return err
		}
		w.mirror = pl
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(w.seed, 0x100c+uint64(w.phase)))
		for {
			select {
			case <-done:
				return
			default:
			}
			r.lookup(1, w.files[rng.IntN(len(w.files))])
		}
	}()
	defer func() {
		close(done)
		wg.Wait()
	}()
	stop := time.Now().Add(d)
	opts := liveOptimizer(psFiles * psBlocks)
	opts.ReplicationBudget = psFiles * psBlocks * 303 / 100
	opts.MaxReplicationMoves = 50
	for time.Now().Before(stop) {
		counts := make(map[core.BlockID]int64)
		for _, f := range w.hours[w.phase%len(w.hours)] {
			p := w.files[f]
			if _, err := r.clients[0].Locations(p); err != nil {
				r.extraFailures = append(r.extraFailures, fmt.Sprintf("replay %s: %v", p, err))
			}
			r.checks++
			for _, id := range w.blocks[p] {
				counts[id]++
			}
		}
		w.phase++
		r.scorePhase(w.mirror, counts)
		r.phaseCounts = append(r.phaseCounts, counts)
		var log []optEvent
		r.period(opts, false, &log)
		if r.tr.enabled() {
			// Algorithm 3 alone, on the benchmark's copy of the
			// placement carrying this phase's popularity.
			for id, n := range counts {
				if err := w.mirror.SetPopularity(id, float64(n)); err != nil {
					return err
				}
			}
			if t, err := alg3Time(w.mirror, opts); err == nil {
				r.periods[len(r.periods)-1].alg3 = t
			}
		}
		if err := applyEvents(w.mirror, log); err != nil {
			// Something outside the period's decisions changed the
			// placement (a dead-node repair): take a fresh copy.
			r.extraFailures = append(r.extraFailures, "placement copy diverged: "+err.Error())
			pl, err := r.cl.nn.PlacementClone()
			if err != nil {
				return err
			}
			w.mirror = pl
		}
	}
	return nil
}

// finalFiles is a seeded sample of the dataset: reading back all of it
// would take longer than the measured phase.
func (w *periodScale) finalFiles() map[string][]byte {
	rng := rand.New(rand.NewPCG(w.seed, 0xf1a1))
	out := make(map[string][]byte)
	for len(out) < 100 {
		p := w.files[rng.IntN(len(w.files))]
		out[p] = w.data[p]
	}
	return out
}
