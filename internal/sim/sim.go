package sim

// Simulation runs are compared across policies and must be replayable
// from a seed: aurora-lint forbids global randomness and wall-clock
// reads here; see DESIGN.md "Correctness tooling".
//
//lint:deterministic

import (
	"errors"
	"fmt"
	"math"

	"aurora/internal/core"
	"aurora/internal/par"
	"aurora/internal/popularity"
	"aurora/internal/sched"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

// Config parameterizes one simulation run.
type Config struct {
	Cluster *topology.Cluster
	Trace   *trace.Trace
	Policy  Policy
	// EpochTicks is the reconfiguration period (paper: 1 hour).
	EpochTicks int64
	// WindowEpochs is the usage-monitor window W in epochs (paper: 2).
	WindowEpochs int
	// RackLocalSlowdown and RemoteSlowdown scale task durations by
	// locality level; node-local is 1.0. The paper cites local tasks
	// running ~2x faster than remote ones.
	RackLocalSlowdown float64
	RemoteSlowdown    float64
	// EWMAAlpha, when positive, smooths the popularity fed to the policy
	// with an exponentially weighted moving average across epochs
	// instead of the raw window counts. The paper found historical
	// values sufficient (Section V), so 0 (off) is the default; the
	// knob exists for burstier workloads. Kept for back-compat: it is
	// shorthand for Predictor = "ewma" with this alpha, and also feeds
	// the alpha used by the seasonal predictor's level estimate.
	EWMAAlpha float64
	// Predictor selects the popularity forecaster fed to the policy at
	// each Algorithm-5 period: one of popularity.Names(), or a reactive
	// name ("", "reactive", ...) for raw window counts.
	Predictor string
	// PredictorSeason is the seasonal predictor's season length in
	// epochs (0 = popularity default of 24). Set it to the workload's
	// period (e.g. trace.ScenarioConfig.PeriodHours when EpochTicks is
	// one hour).
	PredictorSeason int
}

// Errors returned by the simulator.
var (
	ErrBadSimConfig = errors.New("sim: invalid config")
)

// withDefaults fills zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Cluster == nil || c.Trace == nil || c.Policy == nil {
		return c, fmt.Errorf("%w: cluster, trace and policy are required", ErrBadSimConfig)
	}
	if c.EpochTicks == 0 {
		c.EpochTicks = trace.TicksPerHour
	}
	if c.EpochTicks < 0 {
		return c, fmt.Errorf("%w: EpochTicks %d", ErrBadSimConfig, c.EpochTicks)
	}
	if c.WindowEpochs == 0 {
		c.WindowEpochs = 2
	}
	if c.WindowEpochs < 0 {
		return c, fmt.Errorf("%w: WindowEpochs %d", ErrBadSimConfig, c.WindowEpochs)
	}
	if c.RackLocalSlowdown == 0 {
		c.RackLocalSlowdown = 1.5
	}
	if c.RemoteSlowdown == 0 {
		c.RemoteSlowdown = 2.0
	}
	if c.RackLocalSlowdown < 1 || c.RemoteSlowdown < c.RackLocalSlowdown {
		return c, fmt.Errorf("%w: slowdowns must satisfy 1 <= rack <= remote", ErrBadSimConfig)
	}
	if c.EWMAAlpha < 0 || c.EWMAAlpha > 1 {
		return c, fmt.Errorf("%w: EWMAAlpha %v outside [0,1]", ErrBadSimConfig, c.EWMAAlpha)
	}
	if c.PredictorSeason < 0 {
		return c, fmt.Errorf("%w: PredictorSeason %d", ErrBadSimConfig, c.PredictorSeason)
	}
	return c, nil
}

// predictorName resolves the effective predictor: the Predictor field,
// or "ewma" when only the legacy EWMAAlpha knob is set. Empty means
// reactive.
func (c Config) predictorName() string {
	if popularity.IsReactive(c.Predictor) {
		if c.EWMAAlpha > 0 {
			return popularity.NameEWMA
		}
		return ""
	}
	return c.Predictor
}

// EpochStats aggregates one reconfiguration period.
type EpochStats struct {
	Epoch        int
	LocalTasks   int64 // node-local
	RemoteTasks  int64 // rack-local + remote (the paper's "remote")
	Migrations   int
	Replications int
	Evictions    int
	// Cost is the placement objective λ right after reconfiguration.
	Cost float64
	// Reconfigured marks epochs closed by an Algorithm-5 period (the
	// final partial epoch is flushed without one); the fields below are
	// only meaningful when it is set.
	Reconfigured bool
	// RealizedSOL is the objective λ of the placement that *served*
	// this epoch, evaluated against the window counts realized at its
	// close — the honest basis for predictor-vs-reactive comparison,
	// since Cost after a predicted SetPopularity reflects forecast
	// popularity, not what the cluster actually experienced.
	RealizedSOL float64
	// PredWAE and PredTopK score the forecast this epoch ran under
	// against the realized window (popularity.WeightedAbsError and
	// popularity.TopKOverlap with K=20). PredScored marks epochs where
	// a forecast existed to score.
	PredWAE    float64
	PredTopK   float64
	PredScored bool
}

// PredTopKK is the hot-set size used for EpochStats.PredTopK.
const PredTopKK = popularity.DefaultTopK

// JobStat records one job's lifetime.
type JobStat struct {
	ID       int64
	Arrival  int64
	Finish   int64
	Tasks    int
	Remote   int // tasks that were not node-local
	Duration int64
}

// Result is the outcome of a simulation run.
type Result struct {
	Policy string
	// Predictor is the effective popularity forecaster ("reactive" when
	// the policy saw raw window counts).
	Predictor       string
	Epochs          []EpochStats
	Jobs            []JobStat
	TasksPerMachine []int64
	LocalTasks      int64
	RackLocalTasks  int64
	RemoteTasks     int64
	Migrations      int64
	Replications    int64
	Evictions       int64
	// MakespanTicks is the time the last task completed.
	MakespanTicks int64
	// FinalLoads is the popularity-load vector at the end of the run.
	FinalLoads []float64
}

// TotalTasks returns the number of tasks executed.
func (r *Result) TotalTasks() int64 { return r.LocalTasks + r.RackLocalTasks + r.RemoteTasks }

// NonLocalTasks returns the paper's "remote tasks": everything that was
// not node-local.
func (r *Result) NonLocalTasks() int64 { return r.RackLocalTasks + r.RemoteTasks }

// RemoteFraction is NonLocalTasks / TotalTasks.
func (r *Result) RemoteFraction() float64 {
	total := r.TotalTasks()
	if total == 0 {
		return 0
	}
	return float64(r.NonLocalTasks()) / float64(total)
}

// MeanRealizedSOL averages EpochStats.RealizedSOL over the epochs
// closed by a reconfiguration period, and also returns the max. Zero
// periods yields (0, 0).
func (r *Result) MeanRealizedSOL() (mean, max float64) {
	var sum float64
	var n int
	for _, e := range r.Epochs {
		if !e.Reconfigured {
			continue
		}
		sum += e.RealizedSOL
		if e.RealizedSOL > max {
			max = e.RealizedSOL
		}
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), max
}

// MeanPredError averages the per-period prediction-error series over
// the epochs where a forecast was scored.
func (r *Result) MeanPredError() (wae, topK float64, periods int) {
	for _, e := range r.Epochs {
		if !e.PredScored {
			continue
		}
		wae += e.PredWAE
		topK += e.PredTopK
		periods++
	}
	if periods == 0 {
		return 0, 0, 0
	}
	return wae / float64(periods), topK / float64(periods), periods
}

// task is one pending map task, packed into 24 bytes: the arena holds
// one per task of the trace. job is the job's index in Trace.Jobs. done
// marks the task consumed (it may still be referenced by other queues as
// a tombstone).
type task struct {
	block core.BlockID
	dur   int64
	job   int32
	done  bool
}

// fifo is a queue of arena indices with O(1) amortized pop. Once more
// than half of the backing array is consumed, pop slides the live tail
// to the front in place, so the capacity is kept and a steady stream of
// push/pop allocates nothing.
type fifo struct {
	items []int32
	pos   int
}

func (q *fifo) push(idx int32) { q.items = append(q.items, idx) }

func (q *fifo) peek() (int32, bool) {
	if q.pos >= len(q.items) {
		return 0, false
	}
	return q.items[q.pos], true
}

func (q *fifo) pop() {
	q.pos++
	if q.pos > 4096 && q.pos*2 > len(q.items) {
		q.items = q.items[:copy(q.items, q.items[q.pos:])]
		q.pos = 0
	}
}

// pendingLive reports whether any queued task is still unconsumed,
// advancing past tombstones.
func (q *fifo) pendingLive(arena []task) bool {
	for q.pos < len(q.items) && arena[q.items[q.pos]].done {
		q.pop()
	}
	return q.pos < len(q.items)
}

// completion is a scheduled task finish event. job is the job's index
// in Trace.Jobs.
type completion struct {
	at      int64
	seq     int64
	machine topology.MachineID
	job     int32
}

// completionHeap is a binary min-heap of completions ordered by
// (at, seq). seq is unique per completion, so the pop order is fully
// determined by the keys, whatever the heap's internal layout.
type completionHeap []completion

func (h completionHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *completionHeap) push(c completion) {
	s := append(*h, c)
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

// pop removes and returns the earliest completion. The heap must be
// non-empty.
func (h *completionHeap) pop() completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s
	return top
}

func (h completionHeap) peek() (int64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// jobCount is the event loop's per-job state, indexed like Trace.Jobs:
// tasks not yet completed, and tasks that ran rack-local or remote.
type jobCount struct {
	left   int32
	remote int32
}

// countTasks validates the job stream the event loop relies on and
// returns its total task count. Arrivals must not decrease (the
// simulated clock only moves forward), every job needs at least one
// block (a job with none could never complete), and job and task
// counts must fit below limit, because the event loop indexes both
// with int32.
func countTasks(jobs []trace.Job, limit int) (int, error) {
	if len(jobs) > limit {
		return 0, fmt.Errorf("%w: %d jobs exceed the limit of %d", ErrBadSimConfig, len(jobs), limit)
	}
	total := 0
	for i, j := range jobs {
		if len(j.Blocks) == 0 {
			return 0, fmt.Errorf("%w: job %d has no blocks", ErrBadSimConfig, j.ID)
		}
		if i > 0 && j.Arrival < jobs[i-1].Arrival {
			return 0, fmt.Errorf("%w: job %d arrives at %d, before job %d at %d",
				ErrBadSimConfig, j.ID, j.Arrival, jobs[i-1].ID, jobs[i-1].Arrival)
		}
		total += len(j.Blocks)
		if total > limit {
			return 0, fmt.Errorf("%w: more than %d tasks", ErrBadSimConfig, limit)
		}
	}
	return total, nil
}

// RunMany executes independent simulation configs with up to `workers`
// concurrent runs (0 = one per CPU, 1 = serial on the calling
// goroutine). Results and errors are slotted by config index, so the
// output is identical to running the configs serially in order — each
// Run builds its own placement, monitor and scheduler from its config.
// The caller must give each config its own Policy value (policies carry
// per-run state such as RNGs); clusters and traces may be shared, they
// are only read.
func RunMany(cfgs []Config, workers int) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	par.ForEach(len(cfgs), workers, func(i int) {
		results[i], errs[i] = Run(cfgs[i])
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// Run executes the simulation to completion (all jobs finished) and
// returns the collected statistics.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	jobs := cfg.Trace.Jobs
	totalTasks, err := countTasks(jobs, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	pl, err := core.NewPlacement(cfg.Cluster, cfg.Trace.BlockSpecs())
	if err != nil {
		return nil, fmt.Errorf("sim: placement: %w", err)
	}
	// Initial dataset: every block is placed before the first job.
	for _, f := range cfg.Trace.Files {
		for _, b := range f.Blocks {
			if err := cfg.Policy.PlaceInitial(pl, b, topology.NoMachine); err != nil {
				return nil, fmt.Errorf("sim: initial placement: %w", err)
			}
		}
	}
	mon, err := popularity.NewMonitor[core.BlockID](cfg.EpochTicks, cfg.WindowEpochs)
	if err != nil {
		return nil, fmt.Errorf("sim: monitor: %w", err)
	}
	slots := sched.NewSlots(cfg.Cluster)
	if slots.TotalFree() == 0 {
		return nil, fmt.Errorf("%w: cluster has no task slots", ErrBadSimConfig)
	}

	res := &Result{
		Policy:          cfg.Policy.Name(),
		TasksPerMachine: make([]int64, cfg.Cluster.NumMachines()),
	}
	if len(jobs) > 0 {
		// Every job completes, so this is res.Jobs' final size. An
		// empty trace keeps a nil slice.
		res.Jobs = make([]JobStat, 0, len(jobs))
	}
	var (
		// Every task of the trace lives in one arena, sized up front; the
		// global FIFO and the per-machine locality queues hold indices
		// into it, with done flags as tombstones (a task sits in up to
		// k+1 queues).
		arena      = make([]task, 0, totalTasks)
		globalQ    fifo
		localQ     = make([]fifo, cfg.Cluster.NumMachines())
		dirty      = make([]bool, cfg.Cluster.NumMachines())
		dirtyList  []topology.MachineID
		holders    []topology.MachineID // enqueue's reused replica buffer
		comps      completionHeap
		seq        int64
		now        int64
		counts     = make([]jobCount, len(jobs))
		arrIdx     int
		epoch      = 1
		epochStats = EpochStats{Epoch: 1}
	)
	markDirty := func(m topology.MachineID) {
		if !dirty[m] {
			dirty[m] = true
			dirtyList = append(dirtyList, m)
		}
	}
	enqueue := func(tk task) {
		idx := int32(len(arena))
		arena = append(arena, tk)
		globalQ.push(idx)
		// Register the task as a local candidate on every current
		// holder of its block. Replicas created later (mid-epoch
		// replication-on-read, epoch reconfigurations) are still found
		// by the head fallback, which consults the live placement.
		holders = pl.AppendReplicas(tk.block, holders[:0])
		for _, m := range holders {
			localQ[m].push(idx)
			markDirty(m)
		}
	}

	flushEpoch := func(cost float64) {
		epochStats.Cost = cost
		res.Epochs = append(res.Epochs, epochStats)
		epoch++
		epochStats = EpochStats{Epoch: epoch}
	}

	taskObserver, _ := cfg.Policy.(TaskObserver)
	launch := func(tk task, a sched.Assignment) {
		if !slots.Acquire(a.Machine) {
			// Pick guarantees a free slot; treat failure as a bug.
			panic("sim: scheduler returned machine without free slot")
		}
		mon.Record(tk.block, now)
		if taskObserver != nil {
			// Replication-on-read hook (DARE, Aurora+RoR): the policy
			// may copy the block to the machine that runs the task.
			n := taskObserver.OnTask(pl, tk.block, a.Machine, a.Level == sched.NodeLocal, now)
			if n > 0 {
				epochStats.Replications += n
				res.Replications += int64(n)
			}
		}
		dur := tk.dur
		switch a.Level {
		case sched.NodeLocal:
			res.LocalTasks++
			epochStats.LocalTasks++
		case sched.RackLocal:
			res.RackLocalTasks++
			epochStats.RemoteTasks++
			dur = int64(float64(dur) * cfg.RackLocalSlowdown)
			counts[tk.job].remote++
		default:
			res.RemoteTasks++
			epochStats.RemoteTasks++
			dur = int64(float64(dur) * cfg.RemoteSlowdown)
			counts[tk.job].remote++
		}
		if dur < 1 {
			dur = 1
		}
		res.TasksPerMachine[a.Machine]++
		seq++
		comps.push(completion{at: now + dur, seq: seq, machine: a.Machine, job: tk.job})
	}

	// drainLocal launches pending tasks that are node-local to machine m
	// (oldest first) while it has free slots.
	drainLocal := func(m topology.MachineID) {
		q := &localQ[m]
		for slots.Free(m) > 0 {
			idx, ok := q.peek()
			if !ok {
				return
			}
			if arena[idx].done {
				q.pop()
				continue
			}
			if !pl.HasReplica(arena[idx].block, m) {
				q.pop() // stale hint: the replica migrated away
				continue
			}
			arena[idx].done = true
			q.pop()
			launch(arena[idx], sched.Assignment{Machine: m, Level: sched.NodeLocal})
		}
	}

	// schedulePending implements delay scheduling (Zaharia et al., cited
	// as [20] in the paper) with per-machine locality queues: freed
	// machines first drain tasks local to them, and only when no machine
	// can launch a local task does the global head task fall back to
	// rack-local or remote placement. Immediate remote fallback is
	// unstable under load surges — a backlog of 2x-cost remote tasks
	// adds work exactly when the cluster is saturated and never drains.
	schedulePending := func() {
		for slots.TotalFree() > 0 {
			// Pass 1: machines with fresh free slots or fresh local
			// candidates launch node-local work.
			progress := false
			for i := 0; i < len(dirtyList); i++ {
				m := dirtyList[i]
				dirty[m] = false
				before := slots.Free(m)
				drainLocal(m)
				if slots.Free(m) != before {
					progress = true
				}
			}
			dirtyList = dirtyList[:0]
			if progress {
				continue
			}
			// Pass 2: the oldest pending task runs at the best level
			// still available (the live placement may have gained
			// replicas since it was enqueued, so this can still be
			// node-local).
			idx, ok := globalQ.peek()
			for ok && arena[idx].done {
				globalQ.pop()
				idx, ok = globalQ.peek()
			}
			if !ok {
				return
			}
			a, err := sched.Pick(pl, slots, arena[idx].block)
			if err != nil {
				return // no free slot anywhere
			}
			arena[idx].done = true
			globalQ.pop()
			launch(arena[idx], a)
		}
	}

	var pred popularity.Predictor[core.BlockID]
	if name := cfg.predictorName(); name != "" {
		pred, err = popularity.New[core.BlockID](name, popularity.PredictorOptions{
			Alpha:  cfg.EWMAAlpha,
			Season: cfg.PredictorSeason,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: predictor: %w", err)
		}
		res.Predictor = name
	} else {
		res.Predictor = "reactive"
	}
	var lastPred map[core.BlockID]float64
	havePred := false
	refreshAndReconfigure := func() error {
		snap := mon.Snapshot(now)
		// Score the epoch that just closed against what it actually
		// saw: load the realized window counts and record the objective
		// of the placement that served it, plus the error of the
		// forecast it ran under.
		for _, id := range pl.Blocks() {
			if err := pl.SetPopularity(id, float64(snap[id])); err != nil {
				return err
			}
		}
		epochStats.Reconfigured = true
		epochStats.RealizedSOL = pl.Cost()
		if havePred {
			epochStats.PredWAE = popularity.WeightedAbsError(lastPred, snap)
			epochStats.PredTopK = popularity.TopKOverlap(lastPred, snap, PredTopKK)
			epochStats.PredScored = true
		}
		// Then forecast the next epoch and hand the policy the
		// prediction instead of the trailing window.
		if pred != nil {
			pred.Observe(snap)
			lastPred = pred.Predict()
			havePred = true
			for _, id := range pl.Blocks() {
				if err := pl.SetPopularity(id, lastPred[id]); err != nil {
					return err
				}
			}
		}
		rc, err := cfg.Policy.Reconfigure(pl)
		if err != nil {
			return err
		}
		epochStats.Migrations += rc.Migrations
		epochStats.Replications += rc.Replications
		epochStats.Evictions += rc.Evictions
		res.Migrations += int64(rc.Migrations)
		res.Replications += int64(rc.Replications)
		res.Evictions += int64(rc.Evictions)
		return nil
	}

	nextEpochAt := cfg.EpochTicks
	for {
		// Determine the next event time.
		next := int64(-1)
		if t, ok := comps.peek(); ok {
			next = t
		}
		if arrIdx < len(jobs) && (next == -1 || jobs[arrIdx].Arrival < next) {
			next = jobs[arrIdx].Arrival
		}
		busy := len(comps) > 0 || arrIdx < len(jobs) || globalQ.pendingLive(arena)
		if !busy {
			break
		}
		if next == -1 {
			return nil, fmt.Errorf("sim: deadlock: pending tasks with no events")
		}
		// Epoch boundaries fire even while idle between arrivals.
		if nextEpochAt <= next {
			now = nextEpochAt
			if err := refreshAndReconfigure(); err != nil {
				return nil, err
			}
			flushEpoch(pl.Cost())
			nextEpochAt += cfg.EpochTicks
			schedulePending()
			continue
		}
		now = next

		// 1. Completions at `now` free slots.
		for len(comps) > 0 && comps[0].at == now {
			c := comps.pop()
			slots.Release(c.machine)
			markDirty(c.machine)
			jc := &counts[c.job]
			jc.left--
			if jc.left == 0 {
				j := &jobs[c.job]
				res.Jobs = append(res.Jobs, JobStat{
					ID:       j.ID,
					Arrival:  j.Arrival,
					Finish:   now,
					Tasks:    len(j.Blocks),
					Remote:   int(jc.remote),
					Duration: now - j.Arrival,
				})
			}
			if now > res.MakespanTicks {
				res.MakespanTicks = now
			}
		}
		// 2. Arrivals at `now` enqueue tasks.
		for arrIdx < len(jobs) && jobs[arrIdx].Arrival == now {
			j := &jobs[arrIdx]
			ji := int32(arrIdx)
			arrIdx++
			counts[ji].left = int32(len(j.Blocks))
			for _, b := range j.Blocks {
				enqueue(task{block: b, dur: j.TaskDuration, job: ji})
			}
		}
		// 3. Fill freed slots.
		schedulePending()
	}
	// Close the final partial epoch so its tasks are reported.
	if epochStats.LocalTasks+epochStats.RemoteTasks > 0 || epochStats.Migrations+epochStats.Replications > 0 {
		flushEpoch(pl.Cost())
	}
	res.FinalLoads = pl.Loads()
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("sim: placement corrupted during run: %w", err)
	}
	if err := pl.CheckFeasible(); err != nil {
		return nil, fmt.Errorf("sim: placement infeasible after run: %w", err)
	}
	return res, nil
}
