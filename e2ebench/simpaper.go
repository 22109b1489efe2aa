package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"aurora/internal/core"
	"aurora/internal/sim"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

// sim-paper: sim.Run at the paper's shape — 13 racks × 65 machines, 14
// slots each, k = 3 over 2 racks, hourly periods, W = 2 epochs, β = 3.5
// replicas per block, K = 20000 — on a seeded diurnal scenario trace,
// one goroutine, no network. The trace is replayed whole, repeatedly,
// for the measured time.
const (
	simRacks, simMachinesPerRack = 13, 65
	simCapacity, simSlots        = 400, 14
	simFiles, simHours           = 2000, 8
	simJobsPerHour               = 20000
	simPeriodHours               = 4
	simBlocksPerFile             = 8
)

// fixedSizeFiles gives every file of tr the same number of blocks,
// keeping the job stream (arrivals, file choice, task durations). The
// scenario generators draw file sizes at random; with a Zipf-skewed
// file choice the sizes of the few hottest files would otherwise set
// the amount of work, and it would swing widely from seed to seed.
func fixedSizeFiles(tr *trace.Trace, blocks int) *trace.Trace {
	out := &trace.Trace{Config: tr.Config}
	out.Config.MeanBlocksPerFile = float64(blocks)
	next := core.BlockID(1)
	for _, f := range tr.Files {
		ids := make([]core.BlockID, blocks)
		for i := range ids {
			ids[i] = next
			next++
		}
		out.Files = append(out.Files, trace.File{ID: f.ID, Blocks: ids})
	}
	out.Jobs = make([]trace.Job, len(tr.Jobs))
	for i, j := range tr.Jobs {
		j.Blocks = out.Files[j.File-1].Blocks
		out.Jobs[i] = j
	}
	return out
}

func simOptimizer(blocks int) core.OptimizerOptions {
	return core.OptimizerOptions{
		Epsilon:             0.1,
		RackAware:           true,
		ReplicationBudget:   blocks*7/2 + 1,
		MaxReplicationMoves: 20000,
		MaxSearchIterations: 200000,
	}
}

// simPolicy wraps the Aurora policy: it scores the placement that
// served each epoch against the realized window counts the simulator
// has just loaded into it, and times each Algorithm-5 period. Traced,
// it runs the period itself through core.Optimize with observer hooks
// (counting exactly as sim.AuroraPolicy does) to split it into phases.
type simPolicy struct {
	sim.AuroraPolicy
	traced  bool
	tr      *tracer
	ch      *churn
	periods []periodSample
	sols    []float64
	// hours is the wall time each simulated hour took: event loop and
	// the period that closes it. mark is when the current hour began.
	hours []time.Duration
	mark  time.Time
}

func (p *simPolicy) Reconfigure(pl *core.Placement) (sim.Reconfig, error) {
	defer func() {
		now := time.Now()
		p.hours = append(p.hours, now.Sub(p.mark))
		p.mark = now
	}()
	if sol, err := loadRatio(pl); err == nil {
		p.sols = append(p.sols, sol)
	}
	if !p.traced {
		start := time.Now()
		rc, err := p.AuroraPolicy.Reconfigure(pl)
		p.periods = append(p.periods, periodSample{
			dur: time.Since(start), replications: rc.Replications,
			evictions: rc.Evictions, migrations: rc.Migrations,
		})
		return rc, err
	}
	ps := periodSample{traced: true}
	alg3, err := alg3Time(pl, p.Opts)
	if err != nil {
		return sim.Reconfig{}, err
	}
	ps.alg3 = alg3
	var lastRepl time.Time
	opts := hooks(p.Opts, &ps, &lastRepl, p.ch, len(p.periods), nil)
	t0 := p.tr.now()
	start := time.Now()
	_, err = core.Optimize(pl, opts)
	ps.dur = time.Since(start)
	p.tr.add(span{Name: "sim.period", Node: "sim", Start: t0, End: p.tr.now()})
	if !lastRepl.IsZero() {
		ps.replicatePhase = lastRepl.Sub(start)
	}
	ps.search = ps.dur - ps.replicatePhase
	p.periods = append(p.periods, ps)
	if err != nil {
		return sim.Reconfig{}, fmt.Errorf("sim-paper period: %w", err)
	}
	return sim.Reconfig{Migrations: ps.migrations, Replications: ps.replications, Evictions: ps.evictions}, nil
}

// replay is one whole-trace simulation.
type replay struct {
	wall    time.Duration
	res     *sim.Result
	periods []periodSample
	sols    []float64
	hours   []time.Duration
	traced  bool
}

// simSetup generates the trace and makes the initial placement
// (Algorithm 4 for every block, as sim.Run does before the first job).
func simSetup(seed uint64) (*topology.Cluster, *trace.Trace, error) {
	cl, err := topology.Uniform(simRacks, simMachinesPerRack, simCapacity, simSlots)
	if err != nil {
		return nil, nil, err
	}
	tr, err := trace.GenerateScenario(trace.ScenarioDiurnal, trace.ScenarioConfig{
		Seed: seed, Files: simFiles, Hours: simHours, JobsPerHour: simJobsPerHour, PeriodHours: simPeriodHours,
	})
	if err != nil {
		return nil, nil, err
	}
	tr = fixedSizeFiles(tr, simBlocksPerFile)
	pl, err := core.NewPlacement(cl, tr.BlockSpecs())
	if err != nil {
		return nil, nil, err
	}
	for _, f := range tr.Files {
		for _, b := range f.Blocks {
			if err := core.InitialPlace(pl, b, 3, topology.NoMachine); err != nil {
				return nil, nil, err
			}
		}
	}
	return cl, tr, nil
}

func runSim(a args, wd *watchdog) (*report, error) {
	rep := newReport(a)
	var setupDur []float64
	// As on the live workloads, about half the set-ups run before the
	// replays (which use the last one's trace), the rest after them.
	setUp := func() (*topology.Cluster, *trace.Trace, error) {
		wd.phase(fmt.Sprintf("set-up %d", len(setupDur)+1))
		debug.FreeOSMemory()
		start := time.Now()
		cl, tr, err := simSetup(a.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("sim-paper set-up: %w", err)
		}
		setupDur = append(setupDur, time.Since(start).Seconds())
		return cl, tr, nil
	}
	var (
		cl  *topology.Cluster
		tr  *trace.Trace
		err error
	)
	for len(setupDur) < setupsBefore(simPaperSetups) {
		if cl, tr, err = setUp(); err != nil {
			return nil, err
		}
	}
	rep.note("trace: %d files, %d blocks, %d jobs over %d hours", len(tr.Files), tr.NumBlocks(), len(tr.Jobs), simHours)

	var wantTasks int64
	for _, j := range tr.Jobs {
		wantTasks += int64(len(j.Blocks))
	}
	var tracer *tracer
	ch := newChurn()
	if a.trace {
		tracer = newTracer()
		tracer.on.Store(true)
	}
	var replays []replay
	stop := time.Now().Add(time.Duration(a.seconds) * time.Second)
	for i := 0; len(replays) < 2 || time.Now().Before(stop); i++ {
		traced := a.trace && i%2 == 1
		wd.phase(fmt.Sprintf("replay %d (traced %v)", i+1, traced))
		pol := &simPolicy{AuroraPolicy: sim.AuroraPolicy{Opts: simOptimizer(tr.NumBlocks())}, traced: traced, tr: tracer, ch: ch}
		start := time.Now()
		pol.mark = start
		res, err := sim.Run(sim.Config{Cluster: cl, Trace: tr, Policy: pol, EpochTicks: trace.TicksPerHour, WindowEpochs: 2})
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("sim-paper replay: %w", err)
		}
		wd.ops.Add(int64(len(res.Jobs)))
		wd.periods.Add(int64(len(pol.periods)))
		if traced {
			tracer.add(span{Name: "sim.replay", Node: "sim", Start: tracer.now() - int64(wall), End: tracer.now()})
		}
		replays = append(replays, replay{wall: wall, res: res, periods: pol.periods, sols: pol.sols, hours: pol.hours, traced: traced})
		// Correctness: every task of every job completed, and replays
		// of one trace agree exactly.
		rep.attempted += int64(len(tr.Jobs)) + 1
		if missing := int64(len(tr.Jobs) - len(res.Jobs)); missing > 0 {
			rep.failed += missing
			rep.failures = append(rep.failures, fmt.Sprintf("replay %d: %d of %d jobs never completed", i+1, missing, len(tr.Jobs)))
		}
		var done int64
		for _, js := range res.Jobs {
			done += int64(js.Tasks)
		}
		if done != wantTasks || res.TotalTasks() != wantTasks {
			rep.failed++
			rep.failures = append(rep.failures, fmt.Sprintf("replay %d: %d tasks in completed jobs, %d run, want %d", i+1, done, res.TotalTasks(), wantTasks))
		}
		if first := replays[0].res; i > 0 && (res.NonLocalTasks() != first.NonLocalTasks() || res.MakespanTicks != first.MakespanTicks) {
			rep.failed++
			rep.failures = append(rep.failures, fmt.Sprintf("replay %d differs from replay 1", i+1))
		}
	}

	first := replays[0]
	var jobS []float64
	for _, js := range first.res.Jobs {
		jobS = append(jobS, float64(js.Duration)*3600/trace.TicksPerHour)
	}
	var wallU, wallT, tput, pdur, moved, loop, hourMs []float64
	for _, rp := range replays {
		if !rp.traced {
			for _, h := range rp.hours {
				hourMs = append(hourMs, ms(h))
			}
		}
		var sum time.Duration
		for _, p := range rp.periods {
			sum += p.dur
			pdur = append(pdur, ms(p.dur))
			moved = append(moved, float64(p.moved()))
		}
		loop = append(loop, (rp.wall - sum).Seconds())
		if rp.traced {
			wallT = append(wallT, rp.wall.Seconds())
			continue
		}
		wallU = append(wallU, rp.wall.Seconds())
		tput = append(tput, float64(wantTasks)/rp.wall.Seconds())
	}
	rep.e2e["op_p50_ms"] = metric{percentile(hourMs, 0.5), "ms"}
	rep.e2e["period_p50_ms"] = metric{median(pdur), "ms"}
	rep.e2e["realized_sol_ratio"] = metric{mean(first.sols), "ratio"}

	rep.show("sim_hour_p50_ms", percentile(hourMs, 0.5), "ms", len(hourMs))
	rep.show("sim_hour_max_ms", percentile(hourMs, 1), "ms", len(hourMs))
	rep.show("job_p50_s (simulated)", percentile(jobS, 0.5), "s", len(jobS))
	rep.show("job_p99_s (simulated)", percentile(jobS, 0.99), "s", len(jobS))
	rep.show("tasks_per_s", median(tput), "1/s", len(tput))
	rep.show("replay_s", median(wallU), "s", len(wallU))
	rep.show("period_p50_ms", median(pdur), "ms", len(pdur))
	rep.show("blocks_moved_per_period", mean(moved), "count", len(moved))
	rep.show("realized_sol_ratio", mean(first.sols), "ratio", len(first.sols))
	rep.show("remote_task_frac", first.res.RemoteFraction(), "ratio", int(first.res.TotalTasks()))
	rep.show("failed_op_frac", float64(rep.failed)/float64(rep.attempted), "ratio", int(rep.attempted))

	if a.trace {
		var tracedPeriods []periodSample
		var tracedLoop []float64
		for i, rp := range replays {
			if rp.traced {
				tracedPeriods = append(tracedPeriods, rp.periods...)
				tracedLoop = append(tracedLoop, loop[i])
			}
		}
		periodLayers(rep, tracedPeriods, ch)
		rep.setLayer("sim.event_loop_s", mean(tracedLoop))
		if err := monitorLayers(rep, hourlyCounts(tr), trace.TicksPerHour); err != nil {
			return nil, err
		}
		if u := median(wallU); u > 0 {
			rep.setLayer("trace.overhead_frac", median(wallT)/u-1)
		}
		if err := rep.dumpSpans(tracer.snapshot()); err != nil {
			return nil, err
		}
	}
	for len(setupDur) < simPaperSetups {
		if _, _, err := setUp(); err != nil {
			return nil, err
		}
	}
	rep.e2e["setup_s"] = metric{median(setupDur), "s"}
	rep.e2e["rss_peak_MB"] = metric{peakRSSMB(), "MB"}
	rep.note("set-up times (s): %v", setupDur)
	return rep, nil
}

// hourlyCounts is the trace's access stream — one access per task, at
// its job's arrival — as block access counts per simulated hour.
func hourlyCounts(tr *trace.Trace) []map[core.BlockID]int64 {
	var out []map[core.BlockID]int64
	for _, j := range tr.Jobs {
		h := int(j.Arrival / trace.TicksPerHour)
		for len(out) <= h {
			out = append(out, make(map[core.BlockID]int64))
		}
		for _, b := range j.Blocks {
			out[h][b]++
		}
	}
	return out
}
