package main

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"aurora/internal/core"
)

// Operation kinds.
const (
	opRead   = "read"
	opCreate = "create"
	opLookup = "lookup"
)

// liveWorkload is one of the live-cluster workloads. A fresh value is
// made for every set-up.
type liveWorkload interface {
	config(seed uint64) clusterConfig
	// load writes the dataset (part of set-up).
	load(r *liveRun) error
	// measure drives the clients for d, recording into r.
	measure(r *liveRun, d time.Duration) error
	// primary is the operation kind op_p50_ms reports.
	primary() string
	// finalFiles are the files that must read back after the run.
	finalFiles() map[string][]byte
}

// halfStats is what one measured interval produced.
type halfStats struct {
	elapsed   time.Duration
	recs      [2]*recorder
	periods   []periodSample
	solRatios []float64 // per phase
	// phaseCounts are the per-phase block access counts of the
	// workload's own access log.
	phaseCounts []map[core.BlockID]int64
}

// runLive sets the workload up, measures it on the cluster of the last
// set-up before the measured phase, runs the correctness checks and
// reports. With tracing the measured time is split: an untraced half,
// then a traced half whose spans give the per-layer metrics. The rest of
// the workload's set-ups run after the measured phase, so setup_s (their
// median) samples the host over the whole run.
func runLive(a args, newW func(uint64) (liveWorkload, error), nSetups int, wd *watchdog) (*report, error) {
	var tr *tracer
	if a.trace {
		tr = newTracer()
	}
	var (
		w        liveWorkload
		r        *liveRun
		setupDur []float64
	)
	before := setupsBefore(nSetups)
	for i := 0; i < before; i++ {
		last := i == before-1
		if last && tr != nil {
			tr.on.Store(true)
		}
		var (
			d   float64
			err error
		)
		w, r, d, err = setupLive(a, newW, tr, wd, i+1)
		if err != nil {
			return nil, err
		}
		setupDur = append(setupDur, d)
		if !last {
			if err := r.cl.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i+1, err)
			}
		}
	}
	closed := false
	defer func() {
		if closed {
			return
		}
		if err := r.cl.close(); err != nil {
			fmt.Fprintln(os.Stderr, "close cluster:", err)
		}
	}()
	rep := newReport(a)

	measured := time.Duration(a.seconds) * time.Second
	var untraced, traced halfStats
	if tr != nil {
		tr.on.Store(false)
		wd.phase("measure (untraced half)")
		untraced = measureHalf(r, w, measured/2)
		tr.on.Store(true)
		wd.phase("measure (traced half)")
		traced = measureHalf(r, w, measured/2)
		tr.on.Store(false)
	} else {
		wd.phase("measure")
		untraced = measureHalf(r, w, measured)
	}
	wd.phase("final checks")
	r.finalChecks(w.finalFiles())

	// Checks outside client operations, then the operations themselves.
	rep.attempted, rep.failed = r.checks, int64(len(r.extraFailures))
	rep.failures = r.extraFailures
	for _, h := range []halfStats{untraced, traced} {
		for _, rec := range h.recs {
			if rec == nil {
				continue
			}
			for _, s := range rec.samples {
				rep.attempted++
				if s.failed {
					rep.failed++
				}
			}
			rep.failures = append(rep.failures, rec.failures...)
		}
	}
	liveE2E(rep, w.primary(), untraced)
	if tr != nil {
		spans := tr.snapshot()
		linkBlockSpans(spans)
		liveLayers(rep, w.primary(), spans, r, untraced, traced)
		if err := rep.dumpSpans(spans); err != nil {
			return nil, err
		}
	}

	closed = true
	if err := r.cl.close(); err != nil {
		return nil, fmt.Errorf("close cluster: %w", err)
	}
	for i := before; i < nSetups; i++ {
		_, extra, d, err := setupLive(a, newW, nil, wd, i+1)
		if err != nil {
			return nil, err
		}
		setupDur = append(setupDur, d)
		if err := extra.cl.close(); err != nil {
			return nil, fmt.Errorf("tear down set-up %d: %w", i+1, err)
		}
	}
	rep.e2e["setup_s"] = metric{median(setupDur), "s"}
	rep.e2e["rss_peak_MB"] = metric{peakRSSMB(), "MB"}
	rep.note("set-up times (s): %v", setupDur)
	return rep, nil
}

// setupsBefore is how many of a run's n set-ups come before its measured
// phase; the rest come after it.
func setupsBefore(n int) int { return (n + 1) / 2 }

// setupLive makes a fresh workload and sets it up once: boot the
// cluster, load the dataset, converge. It returns the time that took;
// generating the inputs is not part of it, and a garbage collection
// first, returning freed memory to the operating system, starts every
// set-up from the same state.
func setupLive(a args, newW func(uint64) (liveWorkload, error), tr *tracer, wd *watchdog, n int) (liveWorkload, *liveRun, float64, error) {
	wd.phase(fmt.Sprintf("set-up %d", n))
	w, err := newW(a.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := w.config(a.seed)
	debug.FreeOSMemory()
	start := time.Now()
	cl, err := startCluster(cfg, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	r := newLiveRun(a.seed, tr, cl, wd)
	if err := w.load(r); err != nil {
		return nil, nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), cl.close())
	}
	if _, err := cl.waitConverged(convergeDeadline, 10*pollEvery); err != nil {
		return nil, nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), cl.close())
	}
	return w, r, time.Since(start).Seconds(), nil
}

// measureHalf runs the workload for d and takes what it recorded out of
// r, leaving r ready for the next interval.
func measureHalf(r *liveRun, w liveWorkload, d time.Duration) halfStats {
	start := time.Now()
	if err := w.measure(r, d); err != nil {
		r.extraFailures = append(r.extraFailures, "measure: "+err.Error())
	}
	h := halfStats{elapsed: time.Since(start), recs: r.recs, periods: r.periods, solRatios: r.solRatios, phaseCounts: r.phaseCounts}
	for i := range r.recs {
		r.recs[i] = &recorder{}
	}
	r.periods, r.solRatios, r.phaseCounts = nil, nil, nil
	return h
}
