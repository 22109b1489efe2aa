package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/client"
	"aurora/internal/topology"
)

// Deadlines of the watchdog. An operation or period that outlives its
// deadline counts as failed; the whole run has its own deadline in main.
const (
	opDeadline       = 10 * time.Second
	periodDeadline   = 60 * time.Second
	convergeDeadline = 30 * time.Second
	// pollEvery is how often convergence is polled (NameNode.WaitConverged
	// polls every 10ms, too coarse for converge_p50_ms).
	pollEvery = time.Millisecond
)

// errDeadline marks an operation that finished after its deadline.
var errDeadline = errors.New("deadline exceeded")

// content is the seed-derived body of the file at path: every write
// uses it and every read is byte-compared with it.
func content(seed uint64, path string, n int) []byte {
	h := fnv.New64a()
	//lint:ignore errcheck hash writes never fail
	_, _ = h.Write([]byte(path))
	rng := rand.New(rand.NewPCG(seed, h.Sum64()))
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// opSample is one client operation as the benchmark saw it.
type opSample struct {
	kind   string
	lat    time.Duration
	bytes  int64 // verified user bytes read or written
	failed bool
}

// recorder collects one client goroutine's samples; it has one owner.
type recorder struct {
	samples  []opSample
	failures []string
}

func (r *recorder) add(s opSample, err error) {
	r.samples = append(r.samples, s)
	if s.failed && len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", s.kind, err))
	}
}

// periodSample is one Algorithm-5 period run against the live namenode.
type periodSample struct {
	dur          time.Duration
	converge     time.Duration // 0 when the workload does not wait for it
	replications int
	evictions    int
	migrations   int
	searchOps    int
	// Phase timing of traced periods: alg3 from outside; the
	// replication/search split from the observer hooks, only where they
	// fire inline (sim-paper).
	replicatePhase, search, alg3 time.Duration
	traced                       bool
}

func (p periodSample) moved() int { return p.replications + p.evictions + p.migrations }

// replicaKey names one replica for churn accounting.
type replicaKey struct {
	b core.BlockID
	m topology.MachineID
}

// optEvent is one optimizer decision, logged by the observer hooks so
// the benchmark can replay it onto its own copy of the placement.
type optEvent struct {
	op   core.Op
	kind int // 0 replicate (op.Block to op.To), 1 evict (op.Block from op.From), 2 search op
}

// churn tracks replicas a period adds that a later period evicts.
type churn struct {
	addedIn       map[replicaKey]int
	added, undone int
}

func newChurn() *churn { return &churn{addedIn: make(map[replicaKey]int)} }

func (c *churn) frac() float64 {
	if c.added == 0 {
		return 0
	}
	return float64(c.undone) / float64(c.added)
}

// hooks builds observer hooks for one period: they count decisions,
// track replica churn and, when non-nil, note in lastRepl when the
// replication phase last acted and log every decision in log.
func hooks(opts core.OptimizerOptions, ps *periodSample, lastRepl *time.Time, ch *churn, period int, log *[]optEvent) core.OptimizerOptions {
	opts.OnReplicate = func(b core.BlockID, _, to topology.MachineID) {
		ps.replications++
		if lastRepl != nil {
			*lastRepl = time.Now()
		}
		ch.added++
		ch.addedIn[replicaKey{b, to}] = period
		if log != nil {
			*log = append(*log, optEvent{op: core.Op{Block: b, To: to}, kind: 0})
		}
	}
	opts.OnEvict = func(b core.BlockID, m topology.MachineID) {
		ps.evictions++
		if lastRepl != nil {
			*lastRepl = time.Now()
		}
		k := replicaKey{b, m}
		if p, ok := ch.addedIn[k]; ok {
			if p < period {
				ch.undone++
			}
			delete(ch.addedIn, k)
		}
		if log != nil {
			*log = append(*log, optEvent{op: core.Op{Block: b, From: m}, kind: 1})
		}
	}
	opts.OnOp = func(o core.Op) {
		ps.searchOps++
		ps.migrations += o.BlockMovements()
		if log != nil {
			*log = append(*log, optEvent{op: o, kind: 2})
		}
	}
	return opts
}

// applyEvents replays logged optimizer decisions onto p.
func applyEvents(p *core.Placement, evs []optEvent) error {
	for _, e := range evs {
		var err error
		switch e.kind {
		case 0:
			err = p.AddReplica(e.op.Block, e.op.To)
		case 1:
			err = p.RemoveReplica(e.op.Block, e.op.From)
		default:
			switch e.op.Kind {
			case core.OpSwap, core.OpRackSwap:
				err = p.SwapReplicas(e.op.Block, e.op.From, e.op.OtherBlock, e.op.To)
			default:
				err = p.MoveReplica(e.op.Block, e.op.From, e.op.To)
			}
		}
		if err != nil {
			return fmt.Errorf("replay optimizer decision: %w", err)
		}
	}
	return nil
}

// liveRun is one live-cluster workload run: the cluster of its last
// set-up, two clients, and what the measured phase recorded.
type liveRun struct {
	seed    uint64
	tr      *tracer
	cl      *cluster
	clients [2]*client.Client
	cts     [2]*clientTransport
	recs    [2]*recorder
	periods []periodSample
	ch      *churn
	// solRatios is realized_sol_ratio of each measured phase, on the
	// placement that served it.
	solRatios []float64
	// phaseCounts is the workload's access log: block access counts
	// per measured phase.
	phaseCounts []map[core.BlockID]int64
	// extraFailures are failed checks outside client operations.
	extraFailures []string
	checks        int64 // correctness checks attempted outside client ops
	periodSeq     int   // periods run so far, across measured intervals
	wd            *watchdog
}

func newLiveRun(seed uint64, tr *tracer, cl *cluster, wd *watchdog) *liveRun {
	r := &liveRun{seed: seed, tr: tr, cl: cl, ch: newChurn(), wd: wd}
	for i := range r.clients {
		r.clients[i], r.cts[i] = cl.newClient(seed*2 + uint64(i) + 1)
		r.recs[i] = &recorder{}
	}
	return r
}

// timedOp runs fn as one client operation of client ci: it is timed,
// traced as a client span when tracing is on, and failed when it
// errors or outlives opDeadline. fn returns the verified user bytes.
func (r *liveRun) timedOp(ci int, kind, key string, fn func() (int64, error)) (opSample, error) {
	ct := r.cts[ci]
	var id, t0 int64
	if ct != nil && r.tr.enabled() {
		id, t0 = r.tr.newID(), r.tr.now()
		ct.cur.Store(id)
	}
	start := time.Now()
	n, err := fn()
	lat := time.Since(start)
	r.wd.ops.Add(1)
	if id != 0 {
		r.tr.add(span{ID: id, Name: "client." + kind, Key: key, Node: "client", Start: t0, End: r.tr.now(), Err: err != nil})
		ct.cur.Store(0)
	}
	if err == nil && lat > opDeadline {
		err = fmt.Errorf("%s %s took %v: %w", kind, key, lat, errDeadline)
	}
	return opSample{kind: kind, lat: lat, bytes: n, failed: err != nil}, err
}

// read is a verified whole-file read.
func (r *liveRun) read(ci int, path string, want []byte) {
	s, err := r.timedOp(ci, opRead, path, func() (int64, error) {
		got, err := r.clients[ci].Read(path)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, want) {
			return 0, fmt.Errorf("read %s: %d bytes differ from the %d written", path, len(got), len(want))
		}
		return int64(len(got)), nil
	})
	r.recs[ci].add(s, err)
}

// create writes a new file with 3 replicas.
func (r *liveRun) create(ci int, path string, data []byte) bool {
	s, err := r.timedOp(ci, opCreate, path, func() (int64, error) {
		if err := r.clients[ci].Create(path, data, 0); err != nil {
			return 0, err
		}
		return int64(len(data)), nil
	})
	r.recs[ci].add(s, err)
	return err == nil
}

// lookup is one Client.Locations call.
func (r *liveRun) lookup(ci int, path string) {
	s, err := r.timedOp(ci, opLookup, path, func() (int64, error) {
		_, err := r.clients[ci].Locations(path)
		return 0, err
	})
	r.recs[ci].add(s, err)
}

// period runs one OptimizeNow with the given options, timed and traced,
// and, when converge is set, waits for the datanodes to carry it out.
// log, when non-nil, receives the period's decisions. The namenode
// optimizes through core.OptimizeSharded, which replays the observer
// hooks only after the whole period, so a live period is not split into
// its replication and search phases.
func (r *liveRun) period(opts core.OptimizerOptions, converge bool, log *[]optEvent) {
	idx := r.periodSeq
	r.periodSeq++
	ps := periodSample{traced: r.tr.enabled()}
	opts = hooks(opts, &ps, nil, r.ch, idx, log)
	var t0 int64
	if ps.traced {
		t0 = r.tr.now()
	}
	start := time.Now()
	_, err := r.cl.nn.OptimizeNow(opts)
	ps.dur = time.Since(start)
	r.wd.periods.Add(1)
	if ps.traced {
		r.tr.add(span{Name: "namenode.period", Node: "namenode", Start: t0, End: r.tr.now()})
	}
	if err == nil && ps.dur > periodDeadline {
		err = fmt.Errorf("period took %v: %w", ps.dur, errDeadline)
	}
	if err == nil && converge {
		ps.converge, err = r.cl.waitConverged(convergeDeadline, pollEvery)
	}
	if err != nil {
		r.extraFailures = append(r.extraFailures, fmt.Sprintf("period %d: %v", idx, err))
	}
	r.checks++
	r.periods = append(r.periods, ps)
}

// alg3Time times Algorithm 3 alone on the specs the namenode's
// placement holds, from outside the period (traced runs only).
func alg3Time(p *core.Placement, opts core.OptimizerOptions) (time.Duration, error) {
	specs := make([]core.BlockSpec, 0, p.NumBlocks())
	for _, id := range p.Blocks() {
		s, err := p.Spec(id)
		if err != nil {
			return 0, fmt.Errorf("alg3 specs: %w", err)
		}
		specs = append(specs, s)
	}
	maxPer := opts.MaxPerBlock
	if maxPer <= 0 {
		maxPer = p.Cluster().NumMachines()
	}
	start := time.Now()
	if _, err := core.ComputeReplicationFactors(specs, opts.ReplicationBudget, maxPer, opts.MaxReplicationMoves); err != nil {
		return 0, fmt.Errorf("alg3: %w", err)
	}
	return time.Since(start), nil
}

// finalChecks runs after the measured phase: the cluster must converge
// and report every block fully replicated, and every file the workload
// still holds must read back byte-identical.
func (r *liveRun) finalChecks(files map[string][]byte) {
	r.checks++
	if _, err := r.cl.waitConverged(convergeDeadline, 10*pollEvery); err != nil {
		r.extraFailures = append(r.extraFailures, "final convergence: "+err.Error())
	}
	r.checks++
	if err := r.cl.checkHealth(); err != nil {
		r.extraFailures = append(r.extraFailures, err.Error())
	}
	for path, want := range files {
		r.checks++
		got, err := r.clients[0].Read(path)
		switch {
		case err != nil:
			r.extraFailures = append(r.extraFailures, fmt.Sprintf("final read %s: %v", path, err))
		case !bytes.Equal(got, want):
			r.extraFailures = append(r.extraFailures, fmt.Sprintf("final read %s: bytes differ", path))
		}
	}
}

// scorePhase records realized_sol_ratio for one measured phase: the
// placement p that served it against the phase's access counts. A phase
// without accesses is not scored; one whose accesses all miss p is a
// failed check.
func (r *liveRun) scorePhase(p *core.Placement, counts map[core.BlockID]int64) {
	if len(counts) == 0 {
		return
	}
	r.checks++
	sol, err := realizedSOLRatio(p, counts)
	if err != nil {
		r.extraFailures = append(r.extraFailures, fmt.Sprintf("phase %d: %v", len(r.phaseCounts), err))
		return
	}
	r.solRatios = append(r.solRatios, sol)
}

// latencies returns the successful samples' latencies in ms.
func latencies(ss []opSample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if !s.failed {
			out = append(out, ms(s.lat))
		}
	}
	return out
}
