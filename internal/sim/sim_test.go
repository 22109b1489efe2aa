package sim

import (
	"errors"
	"reflect"
	"testing"

	"aurora/internal/baseline"
	"aurora/internal/core"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

func smallTrace(t *testing.T, seed uint64, files, hours int, rate float64) *trace.Trace {
	t.Helper()
	cfg := trace.YahooLike(seed, files, hours, rate)
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr
}

func smallCluster(t *testing.T) *topology.Cluster {
	t.Helper()
	cl, err := topology.Uniform(3, 5, 400, 4) // 15 machines, 4 slots
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return cl
}

func auroraPolicy(budget int) *AuroraPolicy {
	return &AuroraPolicy{Opts: core.OptimizerOptions{
		Epsilon:           0.1,
		RackAware:         true,
		ReplicationBudget: budget,
	}}
}

func TestRunHDFSBaseline(t *testing.T) {
	cl := smallCluster(t)
	tr := smallTrace(t, 1, 40, 3, 60)
	pol, err := NewHDFSPolicy(1)
	if err != nil {
		t.Fatalf("NewHDFSPolicy: %v", err)
	}
	res, err := Run(Config{Cluster: cl, Trace: tr, Policy: pol})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var wantTasks int64
	for _, j := range tr.Jobs {
		wantTasks += int64(len(j.Blocks))
	}
	if got := res.TotalTasks(); got != wantTasks {
		t.Errorf("TotalTasks = %d, want %d", got, wantTasks)
	}
	if len(res.Jobs) != len(tr.Jobs) {
		t.Errorf("completed jobs = %d, want %d", len(res.Jobs), len(tr.Jobs))
	}
	if res.Migrations != 0 || res.Replications != 0 {
		t.Errorf("HDFS baseline moved blocks: %d migrations, %d replications", res.Migrations, res.Replications)
	}
	var perMachine int64
	for _, n := range res.TasksPerMachine {
		perMachine += n
	}
	if perMachine != wantTasks {
		t.Errorf("TasksPerMachine sums to %d, want %d", perMachine, wantTasks)
	}
	if res.MakespanTicks <= 0 {
		t.Error("MakespanTicks not recorded")
	}
	for _, j := range res.Jobs {
		if j.Finish < j.Arrival || j.Duration != j.Finish-j.Arrival {
			t.Fatalf("job %d has inconsistent times: %+v", j.ID, j)
		}
		if j.Remote > j.Tasks {
			t.Fatalf("job %d remote %d > tasks %d", j.ID, j.Remote, j.Tasks)
		}
	}
}

func TestRunAuroraReducesRemoteTasks(t *testing.T) {
	cl := smallCluster(t)
	tr := smallTrace(t, 2, 40, 6, 120)

	hdfs, err := NewHDFSPolicy(2)
	if err != nil {
		t.Fatalf("NewHDFSPolicy: %v", err)
	}
	base, err := Run(Config{Cluster: cl, Trace: tr, Policy: hdfs})
	if err != nil {
		t.Fatalf("Run hdfs: %v", err)
	}

	budget := tr.NumBlocks()*3 + tr.NumBlocks()/2
	aur, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(budget)})
	if err != nil {
		t.Fatalf("Run aurora: %v", err)
	}

	if aur.TotalTasks() != base.TotalTasks() {
		t.Fatalf("task counts differ: %d vs %d", aur.TotalTasks(), base.TotalTasks())
	}
	if aur.NonLocalTasks() > base.NonLocalTasks() {
		t.Errorf("aurora remote tasks %d > hdfs %d", aur.NonLocalTasks(), base.NonLocalTasks())
	}
	if aur.Replications == 0 {
		t.Error("aurora performed no replications despite budget")
	}
}

func TestRunScarlettBetweenHDFSAndAurora(t *testing.T) {
	cl := smallCluster(t)
	tr := smallTrace(t, 3, 40, 6, 120)
	budget := tr.NumBlocks()*3 + tr.NumBlocks()/2

	hdfs, err := NewHDFSPolicy(3)
	if err != nil {
		t.Fatalf("NewHDFSPolicy: %v", err)
	}
	base, err := Run(Config{Cluster: cl, Trace: tr, Policy: hdfs})
	if err != nil {
		t.Fatalf("Run hdfs: %v", err)
	}
	sc, err := NewScarlettPolicy(3, &baseline.Scarlett{Mode: baseline.Priority, Budget: budget})
	if err != nil {
		t.Fatalf("NewScarlettPolicy: %v", err)
	}
	scar, err := Run(Config{Cluster: cl, Trace: tr, Policy: sc})
	if err != nil {
		t.Fatalf("Run scarlett: %v", err)
	}
	if scar.Replications == 0 {
		t.Error("scarlett performed no replications")
	}
	if scar.Migrations != 0 {
		t.Errorf("scarlett migrated blocks (%d); it must not rebalance", scar.Migrations)
	}
	// On small instances Scarlett's replication churn makes its
	// remote-task count noisy, so only sanity-bound it here (the
	// Figure 5 experiment tests the Scarlett-vs-HDFS trend at scale,
	// where Scarlett halves HDFS's remote tasks).
	if scar.NonLocalTasks() > base.NonLocalTasks()*3 {
		t.Errorf("scarlett remote tasks %d far exceed hdfs %d", scar.NonLocalTasks(), base.NonLocalTasks())
	}
	budgetAurora := &AuroraPolicy{Opts: core.OptimizerOptions{
		Epsilon:             0.1,
		RackAware:           true,
		ReplicationBudget:   budget,
		MaxReplicationMoves: 20000,
	}}
	aur, err := Run(Config{Cluster: cl, Trace: tr, Policy: budgetAurora})
	if err != nil {
		t.Fatalf("Run aurora: %v", err)
	}
	if aur.NonLocalTasks() > scar.NonLocalTasks() {
		t.Errorf("aurora remote tasks %d > scarlett %d", aur.NonLocalTasks(), scar.NonLocalTasks())
	}
}

func TestRunEpochAccounting(t *testing.T) {
	cl := smallCluster(t)
	tr := smallTrace(t, 4, 30, 4, 80)
	budget := tr.NumBlocks()*3 + 50
	res, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(budget)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Epochs) < 4 {
		t.Fatalf("epochs = %d, want >= hours", len(res.Epochs))
	}
	var local, remote int64
	var mig, rep int
	for i, e := range res.Epochs {
		if e.Epoch != i+1 {
			t.Errorf("epoch %d numbered %d", i, e.Epoch)
		}
		local += e.LocalTasks
		remote += e.RemoteTasks
		mig += e.Migrations
		rep += e.Replications
	}
	if local != res.LocalTasks {
		t.Errorf("epoch local sum %d != total %d", local, res.LocalTasks)
	}
	if remote != res.NonLocalTasks() {
		t.Errorf("epoch remote sum %d != total %d", remote, res.NonLocalTasks())
	}
	if int64(mig) != res.Migrations || int64(rep) != res.Replications {
		t.Errorf("epoch movement sums (%d,%d) != totals (%d,%d)", mig, rep, res.Migrations, res.Replications)
	}
}

func TestRunConfigValidation(t *testing.T) {
	cl := smallCluster(t)
	tr := smallTrace(t, 5, 10, 1, 10)
	pol, err := NewHDFSPolicy(5)
	if err != nil {
		t.Fatalf("NewHDFSPolicy: %v", err)
	}
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil cluster", Config{Trace: tr, Policy: pol}},
		{"nil trace", Config{Cluster: cl, Policy: pol}},
		{"nil policy", Config{Cluster: cl, Trace: tr}},
		{"negative epoch", Config{Cluster: cl, Trace: tr, Policy: pol, EpochTicks: -1}},
		{"negative window", Config{Cluster: cl, Trace: tr, Policy: pol, WindowEpochs: -1}},
		{"bad slowdowns", Config{Cluster: cl, Trace: tr, Policy: pol, RackLocalSlowdown: 3, RemoteSlowdown: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); !errors.Is(err, ErrBadSimConfig) {
				t.Errorf("err = %v, want ErrBadSimConfig", err)
			}
		})
	}
}

func TestRunZeroSlotCluster(t *testing.T) {
	cl, err := topology.Uniform(2, 2, 100, 0)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	tr := smallTrace(t, 6, 5, 1, 5)
	pol, err := NewHDFSPolicy(6)
	if err != nil {
		t.Fatalf("NewHDFSPolicy: %v", err)
	}
	if _, err := Run(Config{Cluster: cl, Trace: tr, Policy: pol}); !errors.Is(err, ErrBadSimConfig) {
		t.Errorf("err = %v, want ErrBadSimConfig for slotless cluster", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	cl := smallCluster(t)
	tr := smallTrace(t, 7, 30, 3, 60)
	budget := tr.NumBlocks()*3 + 40
	a, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(budget)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(budget)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.LocalTasks != b.LocalTasks || a.RemoteTasks != b.RemoteTasks ||
		a.Migrations != b.Migrations || a.Replications != b.Replications {
		t.Errorf("non-deterministic results: %+v vs %+v", a, b)
	}
}

func TestRemoteFraction(t *testing.T) {
	r := &Result{LocalTasks: 6, RackLocalTasks: 1, RemoteTasks: 3}
	if got := r.RemoteFraction(); got != 0.4 {
		t.Errorf("RemoteFraction = %v, want 0.4", got)
	}
	empty := &Result{}
	if got := empty.RemoteFraction(); got != 0 {
		t.Errorf("empty RemoteFraction = %v, want 0", got)
	}
}

func TestRunWithEWMAPredictor(t *testing.T) {
	cl := smallCluster(t)
	tr := smallTrace(t, 51, 30, 4, 100)
	budget := tr.NumBlocks()*3 + 60
	raw, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(budget)})
	if err != nil {
		t.Fatalf("Run raw: %v", err)
	}
	smoothed, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(budget), EWMAAlpha: 0.5})
	if err != nil {
		t.Fatalf("Run ewma: %v", err)
	}
	if smoothed.TotalTasks() != raw.TotalTasks() {
		t.Errorf("task counts differ: %d vs %d", smoothed.TotalTasks(), raw.TotalTasks())
	}
	// The smoothed run must stay feasible and deterministic; exact
	// locality differences are workload-dependent.
	if _, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(budget), EWMAAlpha: 1.5}); !errors.Is(err, ErrBadSimConfig) {
		t.Errorf("alpha 1.5 accepted")
	}
	if _, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(budget), EWMAAlpha: -0.1}); !errors.Is(err, ErrBadSimConfig) {
		t.Errorf("alpha -0.1 accepted")
	}
}

// TestSchedulerStability guards against the remote-task feedback loop:
// at ~85% utilization the queue must drain close to the trace horizon
// instead of running away (remote tasks cost 2x exactly when the cluster
// is saturated).
func TestSchedulerStability(t *testing.T) {
	cl, err := topology.Uniform(4, 10, 600, 8)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	cfg := trace.YahooLike(61, 150, 4, 2600)
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	pol, err := NewHDFSPolicy(61)
	if err != nil {
		t.Fatalf("NewHDFSPolicy: %v", err)
	}
	res, err := Run(Config{Cluster: cl, Trace: tr, Policy: pol})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	horizon := int64(cfg.Hours) * trace.TicksPerHour
	if res.MakespanTicks > horizon+horizon/4 {
		t.Errorf("makespan %d exceeds horizon %d by more than 25%% — scheduler unstable",
			res.MakespanTicks, horizon)
	}
}

// tinyTrace is a hand-built trace over one 4-block file.
func tinyTrace(jobs ...trace.Job) *trace.Trace {
	return &trace.Trace{
		Config: trace.Config{MinReplicas: 3, MinRacks: 2},
		Files:  []trace.File{{ID: 1, Blocks: []core.BlockID{1, 2, 3, 4}}},
		Jobs:   jobs,
	}
}

// Two jobs sharing an ID are still two jobs: each completes on its own
// and reports its own arrival, task count and duration.
func TestRunDuplicateJobIDs(t *testing.T) {
	tr := tinyTrace(
		trace.Job{ID: 7, Arrival: 1, File: 1, Blocks: []core.BlockID{1, 2, 3}, TaskDuration: 9},
		trace.Job{ID: 7, Arrival: 2, File: 1, Blocks: []core.BlockID{4}, TaskDuration: 20},
	)
	pol, err := NewHDFSPolicy(1)
	if err != nil {
		t.Fatalf("NewHDFSPolicy: %v", err)
	}
	res, err := Run(Config{Cluster: smallCluster(t), Trace: tr, Policy: pol})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every task runs node-local on an idle cluster.
	want := []JobStat{
		{ID: 7, Arrival: 1, Finish: 10, Tasks: 3, Duration: 9},
		{ID: 7, Arrival: 2, Finish: 22, Tasks: 1, Duration: 20},
	}
	if !reflect.DeepEqual(res.Jobs, want) {
		t.Errorf("Jobs = %+v, want %+v", res.Jobs, want)
	}
}

// A trace the event loop cannot replay faithfully is rejected before
// the simulation starts.
func TestRunRejectsBadTraces(t *testing.T) {
	blocks := []core.BlockID{1, 2}
	tests := []struct {
		name string
		tr   *trace.Trace
	}{
		{"decreasing arrivals", tinyTrace(
			trace.Job{ID: 1, Arrival: 100, File: 1, Blocks: blocks, TaskDuration: 5},
			trace.Job{ID: 2, Arrival: 5, File: 1, Blocks: blocks, TaskDuration: 5},
		)},
		{"job without blocks", tinyTrace(
			trace.Job{ID: 1, Arrival: 1, File: 1, Blocks: blocks, TaskDuration: 5},
			trace.Job{ID: 2, Arrival: 2, File: 1, TaskDuration: 5},
		)},
	}
	// More than MaxInt32 tasks: 2^15+1 jobs of 2^16 blocks each, all
	// sharing one block slice.
	wide := make([]core.BlockID, 1<<16)
	for i := range wide {
		wide[i] = 1
	}
	huge := tinyTrace()
	huge.Jobs = make([]trace.Job, 1<<15+1)
	for i := range huge.Jobs {
		huge.Jobs[i] = trace.Job{ID: int64(i), Arrival: 1, File: 1, Blocks: wide, TaskDuration: 1}
	}
	tests = append(tests, struct {
		name string
		tr   *trace.Trace
	}{"too many tasks", huge})
	pol, err := NewHDFSPolicy(1)
	if err != nil {
		t.Fatalf("NewHDFSPolicy: %v", err)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(Config{Cluster: smallCluster(t), Trace: tt.tr, Policy: pol}); !errors.Is(err, ErrBadSimConfig) {
				t.Errorf("err = %v, want ErrBadSimConfig", err)
			}
		})
	}
}

// countTasks bounds the job count and the task count separately; a
// small limit stands in for MaxInt32 jobs, which no test can allocate.
func TestCountTasksLimits(t *testing.T) {
	blocks := []core.BlockID{1, 2}
	jobs := []trace.Job{
		{ID: 1, Arrival: 1, Blocks: blocks},
		{ID: 2, Arrival: 1, Blocks: blocks},
		{ID: 3, Arrival: 4, Blocks: blocks},
	}
	if n, err := countTasks(jobs, 6); err != nil || n != 6 {
		t.Errorf("countTasks(limit 6) = %d, %v; want 6, nil", n, err)
	}
	if _, err := countTasks(jobs, 2); !errors.Is(err, ErrBadSimConfig) {
		t.Errorf("3 jobs under limit 2: err = %v, want ErrBadSimConfig", err)
	}
	if _, err := countTasks(jobs, 5); !errors.Is(err, ErrBadSimConfig) {
		t.Errorf("6 tasks under limit 5: err = %v, want ErrBadSimConfig", err)
	}
}
