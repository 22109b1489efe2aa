// Benchmarks regenerating every evaluation figure of the paper plus the
// ablations DESIGN.md calls out. Figure benches report the paper's
// series as custom metrics (remote tasks/hour, movements/machine/hour,
// locality fractions); algorithm benches measure the cost of the moving
// parts at realistic scale.
//
//	go test -bench=. -benchmem
package aurora_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"aurora"
	"aurora/internal/baseline"
	"aurora/internal/core"
	"aurora/internal/experiments"
	"aurora/internal/popularity"
	"aurora/internal/sim"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

// benchSetup is a reduced (but still contended) rendition of the
// simulation campaign, sized so one figure run fits a benchmark
// iteration.
func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup(42)
	s.Hours = 3
	s.Epsilons = []float64{0.1, 0.8}
	return s
}

// BenchmarkFig3RemoteTasks regenerates Figure 3 (Case 1, BP-Node):
// HDFS versus Aurora, no rack constraint.
func BenchmarkFig3RemoteTasks(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig3(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Rows[0].RemoteTasksPerHour, "hdfs-remote/h")
		b.ReportMetric(fig.Rows[1].RemoteTasksPerHour, "aurora-remote/h")
		b.ReportMetric(fig.Rows[1].MovementsPerMachineHour, "moves/mach/h")
	}
}

// BenchmarkFig4RackAware regenerates Figure 4 (Case 2, BP-Rack).
func BenchmarkFig4RackAware(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Rows[0].RemoteTasksPerHour, "hdfs-remote/h")
		b.ReportMetric(fig.Rows[1].RemoteTasksPerHour, "aurora-remote/h")
		b.ReportMetric(fig.Rows[1].Jain, "aurora-jain")
	}
}

// BenchmarkFig5VsScarlett regenerates Figure 5 (Case 3, BP-Replicate):
// Scarlett versus Aurora under the same replication budget.
func BenchmarkFig5VsScarlett(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5(s)
		if err != nil {
			b.Fatal(err)
		}
		_, pct, err := fig.Headline()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Rows[0].RemoteTasksPerHour, "scarlett-remote/h")
		b.ReportMetric(fig.Rows[1].RemoteTasksPerHour, "aurora-remote/h")
		b.ReportMetric(pct, "reduction-%")
	}
}

// BenchmarkFig6Locality regenerates Figure 6 (testbed): three systems on
// the real mini-DFS over loopback TCP.
func BenchmarkFig6Locality(b *testing.B) {
	setup := experiments.DefaultTestbedSetup(42)
	setup.Files = 12
	setup.Jobs = 120
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].LocalFraction, "hdfs-local")
		b.ReportMetric(res.Rows[1].LocalFraction, "scarlett-local")
		b.ReportMetric(res.Rows[2].LocalFraction, "aurora-local")
	}
}

// buildRandomPlacement creates a placement with Zipf-like popularity on
// random machines — the adversarial start the searches are measured on.
func buildRandomPlacement(b *testing.B, machines, blocks int) (*aurora.Cluster, []aurora.BlockSpec, *aurora.Placement) {
	return buildRandomPlacementCap(b, machines, blocks, blocks)
}

// buildRandomPlacementCap allows a tight per-machine capacity, which is
// what makes Swap operations necessary (Theorem 2's capacity case).
func buildRandomPlacementCap(b *testing.B, machines, blocks, capacity int) (*aurora.Cluster, []aurora.BlockSpec, *aurora.Placement) {
	b.Helper()
	cluster, err := aurora.UniformCluster(4, machines/4, capacity, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	specs := make([]aurora.BlockSpec, blocks)
	for i := range specs {
		specs[i] = aurora.BlockSpec{
			ID:          aurora.BlockID(i + 1),
			Popularity:  1000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	p, err := aurora.NewPlacement(cluster, specs)
	if err != nil {
		b.Fatal(err)
	}
	ms := cluster.Machines()
	for _, s := range specs {
		for p.ReplicaCount(s.ID) < 3 {
			m := ms[rng.IntN(len(ms))]
			if p.ReplicaCount(s.ID) == 1 && p.RackSpread(s.ID) == 1 {
				if cluster.SameRack(p.Replicas(s.ID)[0], m) {
					continue
				}
			}
			_ = p.AddReplica(s.ID, m)
		}
	}
	return cluster, specs, p
}

// benchSizes are the hot-path benchmark configurations. The laptop-scale
// instance converges fully; the large instance (1000 machines, 20k
// blocks) caps the operation count so runtime stays bounded — the op
// sequence is deterministic, so ns/op remains a fair per-operation
// comparison across implementations. Clone runs under StopTimer so
// neither time nor allocations of the deep copy pollute the search
// measurement.
var benchSizes = []struct {
	name     string
	machines int
	blocks   int
	maxIters int
}{
	{name: "40x2k", machines: 40, blocks: 2000},
	{name: "1000x20k", machines: 1000, blocks: 20000, maxIters: 2000},
}

// BenchmarkLocalSearchNode measures Algorithm 1 on random instances.
func BenchmarkLocalSearchNode(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			_, _, base := buildRandomPlacement(b, sz.machines, sz.blocks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := base.Clone()
				b.StartTimer()
				res, err := core.BPNodeSearch(p, core.SearchOptions{MaxIterations: sz.maxIters})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "ops")
			}
		})
	}
}

// BenchmarkLocalSearchRack measures Algorithm 2 on the same instances.
func BenchmarkLocalSearchRack(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			_, _, base := buildRandomPlacement(b, sz.machines, sz.blocks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := base.Clone()
				b.StartTimer()
				res, err := core.BPRackSearch(p, core.SearchOptions{MaxIterations: sz.maxIters})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "ops")
			}
		})
	}
}

// BenchmarkRepFactor measures Algorithm 3 at the paper's scale: 16000
// blocks, budget 48000+70000, K=20000.
func BenchmarkRepFactor(b *testing.B) {
	specs := make([]aurora.BlockSpec, 16000)
	for i := range specs {
		specs[i] = aurora.BlockSpec{
			ID:          aurora.BlockID(i + 1),
			Popularity:  100000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := aurora.ReplicationFactors(specs, 48000+70000, 845, 20000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Objective, "objective")
	}
}

// BenchmarkInitialPlacement measures Algorithm 4 placing 1000 blocks on
// an 845-machine cluster.
func BenchmarkInitialPlacement(b *testing.B) {
	cluster, err := aurora.UniformCluster(13, 65, 200, 14)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		specs := make([]aurora.BlockSpec, 1000)
		for j := range specs {
			specs[j] = aurora.BlockSpec{ID: aurora.BlockID(j + 1), Popularity: float64(j), MinReplicas: 3, MinRacks: 2}
		}
		p, err := aurora.NewPlacement(cluster, specs)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, s := range specs {
			if err := aurora.PlaceBlock(p, s.ID, 3, aurora.NoMachine); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOptimizePeriod measures one full Algorithm 5 period
// (replication + local search) on contended instances.
func BenchmarkOptimizePeriod(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			_, _, base := buildRandomPlacement(b, sz.machines, sz.blocks)
			budget := base.TotalReplicas() + 1000
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := base.Clone()
				b.StartTimer()
				if _, err := aurora.Optimize(p, aurora.OptimizerOptions{
					Epsilon:             0.1,
					RackAware:           true,
					ReplicationBudget:   budget,
					MaxReplicationMoves: 20000,
					MaxSearchIterations: sz.maxIters,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizePeriodSharded measures one Algorithm 5 period at
// namenode scale — 10000 machines, 1M blocks — through the partitioned
// block map, with 1 shard (the classic single-map path, bit-identical
// to Optimize) and 8 shards under the same global iteration, move and
// budget caps. The stride start places every block on three distinct
// racks with balanced replica counts while the Zipf head concentrates
// popularity on low machine IDs — the contended instance each shard's
// search must unwind. The sharded win is algorithmic, not parallel:
// each probe walks a popularity-ordered candidate list ~1/N as long,
// over maps and heaps ~1/N the size.
func BenchmarkOptimizePeriodSharded(b *testing.B) {
	const (
		machines = 10000
		racks    = 20
		blocks   = 1_000_000
		iters    = 40000
		extra    = 2000
	)
	perRack := machines / racks
	capacity := 3*blocks/machines + 60 // replica mass plus slack for replication
	cluster, err := aurora.UniformCluster(racks, machines/racks, capacity, 8)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]aurora.BlockSpec, blocks)
	for i := range specs {
		specs[i] = aurora.BlockSpec{
			ID:          aurora.BlockID(i + 1),
			Popularity:  1000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("10000x1M/shards=%d", shards), func(b *testing.B) {
			base, err := aurora.NewShardedPlacement(cluster, shards, specs)
			if err != nil {
				b.Fatal(err)
			}
			for i, s := range specs {
				m1 := i % machines
				for _, m := range []int{m1, (m1 + perRack) % machines, (m1 + 2*perRack) % machines} {
					if err := base.AddReplica(s.ID, aurora.MachineID(m)); err != nil {
						b.Fatal(err)
					}
				}
			}
			budget := base.TotalReplicas() + extra
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sp := base.Clone()
				b.StartTimer()
				res, err := aurora.OptimizeSharded(sp, aurora.ShardedOptimizerOptions{
					Opts: aurora.OptimizerOptions{
						Epsilon:             0.1,
						RackAware:           true,
						ReplicationBudget:   budget,
						MaxReplicationMoves: extra,
						MaxSearchIterations: iters,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Search.Iterations), "ops")
				b.ReportMetric(res.Imbalance, "imbalance")
			}
		})
	}
}

// BenchmarkAblationNoSwap compares the local search with and without
// Swap operations: without Swap the capacity argument of Theorem 2
// fails, and on tight clusters the final cost is worse.
func BenchmarkAblationNoSwap(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "swap"
		if disable {
			name = "no-swap"
		}
		b.Run(name, func(b *testing.B) {
			// Tight capacity (5% slack): full machines force swaps.
			_, _, base := buildRandomPlacementCap(b, 40, 2000, 2000*3/40+8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := base.Clone()
				res, err := core.BPRackSearch(p, core.SearchOptions{DisableSwap: disable})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalCost, "final-cost")
			}
		})
	}
}

// BenchmarkAblationEpsilon sweeps the admissibility knob and reports the
// quality/movement tradeoff (the relationship behind Figures 3c/4c).
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{0, 0.3, 0.7} {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			_, _, base := buildRandomPlacement(b, 40, 2000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := base.Clone()
				res, err := core.BPRackSearch(p, core.SearchOptions{Epsilon: eps})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalCost, "final-cost")
				b.ReportMetric(float64(res.Movements), "movements")
			}
		})
	}
}

// BenchmarkAblationRepFactor compares Algorithm 3's optimal factors
// against Scarlett's priority heuristic on the same budget: the metric
// is the per-replica popularity objective each achieves.
func BenchmarkAblationRepFactor(b *testing.B) {
	specs := make([]core.BlockSpec, 5000)
	for i := range specs {
		specs[i] = core.BlockSpec{
			ID:          core.BlockID(i + 1),
			Popularity:  50000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	budget := 3*len(specs) + 5000
	b.Run("algorithm3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.ComputeReplicationFactors(specs, budget, 845, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Objective, "objective")
		}
	})
	b.Run("scarlett-priority", func(b *testing.B) {
		s := &baseline.Scarlett{Mode: baseline.Priority, Budget: budget}
		for i := 0; i < b.N; i++ {
			factors, err := s.Factors(specs, 845)
			if err != nil {
				b.Fatal(err)
			}
			objective := 0.0
			for _, sp := range specs {
				if v := sp.Popularity / float64(factors[sp.ID]); v > objective {
					objective = v
				}
			}
			b.ReportMetric(objective, "objective")
		}
	})
}

// BenchmarkAblationInitialPlacement compares the starting cost of
// Algorithm 4 against random placement, and how many local-search
// operations each needs to converge.
func BenchmarkAblationInitialPlacement(b *testing.B) {
	cluster, err := aurora.UniformCluster(4, 10, 2000, 8)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]aurora.BlockSpec, 2000)
	for i := range specs {
		specs[i] = aurora.BlockSpec{
			ID:          aurora.BlockID(i + 1),
			Popularity:  1000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	b.Run("algorithm4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := aurora.NewPlacement(cluster, specs)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range specs {
				if err := aurora.PlaceBlock(p, s.ID, 3, aurora.NoMachine); err != nil {
					b.Fatal(err)
				}
			}
			res, err := core.BPRackSearch(p, core.SearchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Iterations), "ops-to-converge")
			b.ReportMetric(res.FinalCost, "final-cost")
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, _, p := buildRandomPlacement(b, 40, 2000)
			b.StartTimer()
			res, err := core.BPRackSearch(p, core.SearchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Iterations), "ops-to-converge")
			b.ReportMetric(res.FinalCost, "final-cost")
		}
	})
}

// BenchmarkLoadIndex compares the linear argmax/argmin scan the
// placement uses against rebuilding a sorted index, justifying the
// scan-based design at cluster scale.
func BenchmarkLoadIndex(b *testing.B) {
	cluster, err := topology.Uniform(13, 65, 200, 14)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]core.BlockSpec, 2000)
	for i := range specs {
		specs[i] = core.BlockSpec{ID: core.BlockID(i + 1), Popularity: float64(i), MinReplicas: 3, MinRacks: 2}
	}
	p, err := core.NewPlacement(cluster, specs)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range specs {
		if err := core.InitialPlace(p, s.ID, 3, topology.NoMachine); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("linear-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.MaxLoadedMachine()
			_ = p.MinLoadedMachine()
		}
	})
	b.Run("full-vector-copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loads := p.Loads()
			maxI, minI := 0, 0
			for j, l := range loads {
				if l > loads[maxI] {
					maxI = j
				}
				if l < loads[minI] {
					minI = j
				}
			}
			_ = maxI
			_ = minI
		}
	})
}

// BenchmarkUsageMonitor measures the sliding-window monitor under the
// access rates the simulator generates.
func BenchmarkUsageMonitor(b *testing.B) {
	mon, err := popularity.NewMonitor[core.BlockID](3600, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Record(core.BlockID(i%10000), int64(i))
	}
}

// BenchmarkTraceGenerate measures workload generation at the paper's
// simulation scale.
func BenchmarkTraceGenerate(b *testing.B) {
	cfg := trace.YahooLike(1, 2000, 24, 2000)
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDFSWriteRead measures the mini-DFS data path: a 16-block file
// written through replication pipelines and read back, over real TCP.
func BenchmarkDFSWriteRead(b *testing.B) {
	nn, err := aurora.StartNameNode(aurora.NameNodeConfig{
		ExpectedNodes:     4,
		Racks:             2,
		BlockSize:         64 << 10,
		ReconcileInterval: 50 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer nn.Close()
	for i := 0; i < 4; i++ {
		dn, err := aurora.StartDataNode(aurora.DataNodeConfig{
			NameNodeAddr:      nn.Addr(),
			Rack:              i % 2,
			CapacityBlocks:    4096,
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer dn.Close()
	}
	if err := nn.WaitReady(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	c := aurora.NewFSClient(nn.Addr(), aurora.WithBlockSize(64<<10), aurora.WithClientSeed(1))
	data := make([]byte, 16*(64<<10))
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)) * 2) // written + read back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/bench/%d", i)
		if err := c.Create(path, data, 3); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(path); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.Delete(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkDataPathThroughput measures the chunked streaming data path
// (DESIGN.md §15) end to end over real TCP: a 16-block file streamed
// through k=3 pipelines in 64 KiB chunks and read back with one block
// of read-ahead. The MB/s figure is the headline; allocs/op rides the
// ratchet so the per-chunk framing stays allocation-lean.
func BenchmarkDataPathThroughput(b *testing.B) {
	nn, err := aurora.StartNameNode(aurora.NameNodeConfig{
		ExpectedNodes:     4,
		Racks:             2,
		BlockSize:         256 << 10,
		ReconcileInterval: 50 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer nn.Close()
	for i := 0; i < 4; i++ {
		dn, err := aurora.StartDataNode(aurora.DataNodeConfig{
			NameNodeAddr:      nn.Addr(),
			Rack:              i % 2,
			CapacityBlocks:    4096,
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer dn.Close()
	}
	if err := nn.WaitReady(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	c := aurora.NewFSClient(nn.Addr(),
		aurora.WithBlockSize(256<<10),
		aurora.WithClientSeed(1),
		aurora.WithChunkSize(64<<10),
		aurora.WithReadAhead(1),
	)
	data := make([]byte, 16*(256<<10))
	for i := range data {
		data[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(data)) * 2) // written + read back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/bench/stream/%d", i)
		if err := c.Create(path, data, 3); err != nil {
			b.Fatal(err)
		}
		got, err := c.Read(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if len(got) != len(data) {
			b.Fatalf("read %d bytes, want %d", len(got), len(data))
		}
		if err := c.Delete(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkSimEventLoop measures the simulator's event loop: one
// sim.Run of a 2-hour diurnal trace on 4×20 machines with 4 slots each.
// The HDFS policy never reconfigures, so apart from its random initial
// placement the time and allocations are the loop's own: arrivals,
// locality queues, scheduling and completions. allocs/op rides the
// ratchet so the loop stays allocation-free per task.
func BenchmarkSimEventLoop(b *testing.B) {
	cl, err := topology.Uniform(4, 20, 400, 4)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.GenerateScenario(trace.ScenarioDiurnal, trace.ScenarioConfig{
		Seed: 42, Files: 300, Hours: 2, JobsPerHour: 1500, PeriodHours: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	var tasks int64
	for _, j := range tr.Jobs {
		tasks += int64(len(j.Blocks))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := sim.NewHDFSPolicy(42)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Config{Cluster: cl, Trace: tr, Policy: pol})
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalTasks() != tasks {
			b.Fatalf("ran %d tasks, want %d", res.TotalTasks(), tasks)
		}
	}
	b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkAblationReplicationOnRead compares Aurora against Aurora with
// the paper's future-work replication-on-read extension and against the
// DARE baseline, under the same budget.
func BenchmarkAblationReplicationOnRead(b *testing.B) {
	cl, err := topology.Uniform(4, 10, 600, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.YahooLike(42, 150, 3, 2600)
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	budget := tr.NumBlocks()*3 + 1200
	policies := map[string]func() (sim.Policy, error){
		"aurora": func() (sim.Policy, error) {
			return &sim.AuroraPolicy{Opts: core.OptimizerOptions{
				Epsilon: 0.1, RackAware: true,
				ReplicationBudget: budget, MaxReplicationMoves: 20000,
				MaxSearchIterations: 50000,
			}}, nil
		},
		"aurora+ror": func() (sim.Policy, error) {
			return sim.NewAuroraRoRPolicy(42, 0.5, core.OptimizerOptions{
				Epsilon: 0.1, RackAware: true,
				ReplicationBudget: budget, MaxReplicationMoves: 20000,
				MaxSearchIterations: 50000,
			})
		},
		"dare": func() (sim.Policy, error) {
			return sim.NewDAREPolicy(42, 0.5, budget)
		},
	}
	for _, name := range []string{"aurora", "aurora+ror", "dare"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol, err := policies[name]()
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{Cluster: cl, Trace: tr, Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.NonLocalTasks()), "remote-tasks")
				b.ReportMetric(float64(res.Replications), "replications")
			}
		})
	}
}

// BenchmarkAblationScarlettMode compares Scarlett's two budget heuristics
// (the paper notes priority "achieves better performance than round
// robin"): the metric is the remote-task count each produces under the
// same budget.
func BenchmarkAblationScarlettMode(b *testing.B) {
	cl, err := topology.Uniform(4, 10, 600, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.YahooLike(42, 150, 3, 2600)
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	budget := tr.NumBlocks()*3 + 1200
	for _, mode := range []baseline.ScarlettMode{baseline.Priority, baseline.RoundRobin} {
		name := "priority"
		if mode == baseline.RoundRobin {
			name = "round-robin"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol, err := sim.NewScarlettPolicy(42, &baseline.Scarlett{Mode: mode, Budget: budget})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{Cluster: cl, Trace: tr, Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.NonLocalTasks()), "remote-tasks")
			}
		})
	}
}
