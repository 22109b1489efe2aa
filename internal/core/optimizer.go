package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"aurora/internal/topology"
)

// OptimizerOptions configure one run of Algorithm 5 (the periodic
// placement optimizer of Section V).
type OptimizerOptions struct {
	// Epsilon is the admissibility threshold for the local-search phase
	// (Section IV).
	Epsilon float64
	// ReplicationBudget is β: the maximum total number of replicas
	// (Σ k_i) across all blocks. Zero disables dynamic replication
	// (BP-Node/BP-Rack mode: factors stay at their minimums).
	ReplicationBudget int
	// MaxReplicationMoves is K: the bound on both Algorithm 3 iterations
	// and the number of replica copies performed per period. Zero means
	// unbounded.
	MaxReplicationMoves int
	// MaxPerBlock caps k_i; zero defaults to the number of machines.
	MaxPerBlock int
	// RackAware selects Algorithm 2 (true) or Algorithm 1 (false) for
	// the local-search phase.
	RackAware bool
	// MaxSearchIterations bounds the local-search phase; zero means run
	// to quiescence.
	MaxSearchIterations int
	// OnReplicate, if non-nil, observes every replica copy (block,
	// source machine, destination machine). Source is NoMachine when the
	// block had no replicas.
	OnReplicate func(BlockID, topology.MachineID, topology.MachineID)
	// OnEvict, if non-nil, observes every lazy deletion performed to
	// reclaim capacity.
	OnEvict func(BlockID, topology.MachineID)
	// OnOp, if non-nil, observes every local-search operation.
	OnOp func(Op)
}

// OptimizeResult summarizes one optimizer period.
type OptimizeResult struct {
	// Targets are the replication factors chosen by Algorithm 3 (nil
	// when dynamic replication is disabled).
	Targets map[BlockID]int
	// RepFactor reports the Algorithm 3 run (zero value when disabled).
	RepFactor RepFactorResult
	// Replications is the number of replica copies performed.
	Replications int
	// Evictions is the number of lazy deletions performed for capacity.
	Evictions int
	// Search reports the local-search phase.
	Search SearchResult
}

// Optimize runs one period of Algorithm 5 against the placement:
//
//  1. If a replication budget is set, compute target factors with
//     Algorithm 3 and copy replicas of under-replicated blocks (hottest
//     first) onto least-loaded machines, up to K copies. Deletion of
//     over-replicated blocks is lazy: surplus replicas are only evicted
//     when a machine's capacity is needed.
//  2. Run the admissible local search (Algorithm 2, or Algorithm 1 when
//     RackAware is false) until no admissible operation remains.
//
// The placement is modified in place.
func Optimize(p *Placement, opts OptimizerOptions) (OptimizeResult, error) {
	var res OptimizeResult
	if opts.ReplicationBudget > 0 {
		if err := replicatePhase(p, &opts, &res); err != nil {
			return res, err
		}
	}
	searchOpts := SearchOptions{
		Epsilon:       opts.Epsilon,
		MaxIterations: opts.MaxSearchIterations,
		OnOp:          opts.OnOp,
	}
	var err error
	if opts.RackAware {
		res.Search, err = BPRackSearch(p, searchOpts)
	} else {
		res.Search, err = BPNodeSearch(p, searchOpts)
	}
	return res, err
}

// replicatePhase runs Algorithm 3 and applies the resulting targets with
// at most K replica copies.
func replicatePhase(p *Placement, opts *OptimizerOptions, res *OptimizeResult) error {
	maxPerBlock := opts.MaxPerBlock
	if maxPerBlock <= 0 {
		maxPerBlock = p.Cluster().NumMachines()
	}
	specs := make([]BlockSpec, 0, p.NumBlocks())
	for _, id := range p.Blocks() {
		s, err := p.Spec(id)
		if err != nil {
			return err
		}
		specs = append(specs, s)
	}
	rf, err := ComputeReplicationFactors(specs, opts.ReplicationBudget, maxPerBlock, opts.MaxReplicationMoves)
	if err != nil {
		return fmt.Errorf("core: rep-factor phase: %w", err)
	}
	res.Targets = rf.Factors
	res.RepFactor = rf

	// Under-replicated blocks, hottest per-replica popularity first, so
	// the bounded copy budget goes where it matters most.
	type deficit struct {
		id   BlockID
		need int
		heat float64
	}
	var deficits []deficit
	for id, target := range rf.Factors {
		cur := p.ReplicaCount(id)
		if cur < target {
			deficits = append(deficits, deficit{id: id, need: target - cur, heat: p.PerReplicaPopularity(id)})
		}
	}
	sort.Slice(deficits, func(a, b int) bool {
		if !floatEq(deficits[a].heat, deficits[b].heat) {
			return deficits[a].heat > deficits[b].heat
		}
		return deficits[a].id < deficits[b].id
	})

	// Surplus candidates (current count above the new target) are
	// collected once, coldest first: dynamic replication only raises
	// counts toward targets, so no new surplus appears during the phase
	// and the queue stays valid under lazy re-checks.
	eq := newEvictQueue(p, rf.Factors)

	copies := 0
	for _, d := range deficits {
		for c := 0; c < d.need; c++ {
			if opts.MaxReplicationMoves > 0 && copies >= opts.MaxReplicationMoves {
				return nil
			}
			if !replicateOnce(p, d.id, eq, opts, res) {
				break // no host available even after eviction attempts
			}
			copies++
			res.Replications++
		}
	}
	return nil
}

// evictQueue holds lazy surplus-eviction candidates, coldest first.
type evictQueue struct {
	targets map[BlockID]int
	order   []BlockID
	pos     int
	scratch []topology.MachineID // reused by holder scans in evictSurplus
}

// newEvictQueue snapshots the blocks whose replica count exceeds their
// target, ordered by ascending per-replica popularity.
func newEvictQueue(p *Placement, targets map[BlockID]int) *evictQueue {
	eq := &evictQueue{targets: targets}
	type cand struct {
		id   BlockID
		heat float64
	}
	var cands []cand
	for _, id := range sortedTargetIDs(targets) {
		if p.ReplicaCount(id) > targets[id] {
			cands = append(cands, cand{id: id, heat: p.PerReplicaPopularity(id)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if !floatEq(cands[a].heat, cands[b].heat) {
			return cands[a].heat < cands[b].heat
		}
		return cands[a].id < cands[b].id
	})
	eq.order = make([]BlockID, len(cands))
	for i, c := range cands {
		eq.order[i] = c.id
	}
	return eq
}

// replicateOnce adds one replica of block id on the best destination,
// evicting surplus replicas if either the global replication budget or
// the cluster's capacity is exhausted (Section V's lazy deletion: stale
// replicas are reclaimed only when their space is needed). It reports
// whether a replica was added.
func replicateOnce(p *Placement, id BlockID, eq *evictQueue, opts *OptimizerOptions, res *OptimizeResult) bool {
	if p.TotalReplicas() >= opts.ReplicationBudget {
		if !evictSurplus(p, eq, id, opts, res) {
			return false
		}
	}
	dest := replicaDestination(p, id)
	if dest == topology.NoMachine {
		// Lazy deletion (Section V): reclaim space by dropping the
		// coldest surplus replica from a machine that could actually
		// host this block, then retry once.
		if !evictSurplus(p, eq, id, opts, res) {
			return false
		}
		dest = replicaDestination(p, id)
		if dest == topology.NoMachine {
			return false
		}
	}
	src := replicaSource(p, id)
	if err := p.AddReplica(id, dest); err != nil {
		return false
	}
	if opts.OnReplicate != nil {
		opts.OnReplicate(id, src, dest)
	}
	return true
}

// replicaDestination picks where a new replica of block id should go:
// the least-loaded machine in the least-loaded rack, preferring racks
// that widen the block's spread while it is below MinRacks.
func replicaDestination(p *Placement, id BlockID) topology.MachineID {
	spec, err := p.Spec(id)
	if err != nil {
		return topology.NoMachine
	}
	racks := racksByLoad(p)
	if p.RackSpread(id) < spec.MinRacks {
		if m := leastLoadedHost(p, id, racks, func(r topology.RackID) bool {
			return blockInRack(p, id, r)
		}); m != topology.NoMachine {
			return m
		}
	}
	return leastLoadedHost(p, id, racks, nil)
}

// replicaSource picks which existing holder a copy would stream from:
// the least-loaded holder, to disturb hotspots least. Returns NoMachine
// for an unplaced block.
func replicaSource(p *Placement, id BlockID) topology.MachineID {
	best := topology.NoMachine
	bestLoad := 0.0
	for _, m := range p.Replicas(id) {
		if best == topology.NoMachine || p.Load(m) < bestLoad {
			best, bestLoad = m, p.Load(m)
		}
	}
	return best
}

// evictSurplus removes one replica of a block whose current count
// exceeds its target, taking the coldest queued candidate whose removal
// keeps rack spread intact and frees a slot forBlock can use, never
// violating MinReplicas. Reports whether an eviction happened.
func evictSurplus(p *Placement, eq *evictQueue, forBlock BlockID, opts *OptimizerOptions, res *OptimizeResult) bool {
	for ; eq.pos < len(eq.order); eq.pos++ {
		id := eq.order[eq.pos]
		cur := p.ReplicaCount(id)
		spec, err := p.Spec(id)
		if err != nil {
			continue
		}
		if cur <= eq.targets[id] || cur <= spec.MinReplicas {
			continue
		}
		// Drop from the most-loaded holder whose removal keeps the rack
		// spread intact and frees a slot the incoming block can use.
		eq.scratch = appendReplicasByLoadDescending(p, id, eq.scratch[:0])
		for _, m := range eq.scratch {
			if p.HasReplica(forBlock, m) {
				continue // freeing this slot would not help forBlock
			}
			if !removalKeepsSpread(p, id, m, spec.MinRacks) {
				continue
			}
			if err := p.RemoveReplica(id, m); err != nil {
				continue
			}
			// Block may still hold more surplus: do not advance past it.
			res.Evictions++
			if opts.OnEvict != nil {
				opts.OnEvict(id, m)
			}
			return true
		}
	}
	return false
}

// sortedTargetIDs returns the target map's keys in ascending order so
// eviction scans are deterministic.
func sortedTargetIDs(targets map[BlockID]int) []BlockID {
	ids := make([]BlockID, 0, len(targets))
	for id := range targets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// appendReplicasByLoadDescending appends the holders of block id to buf
// from most to least loaded and returns the extended slice.
func appendReplicasByLoadDescending(p *Placement, id BlockID, buf []topology.MachineID) []topology.MachineID {
	start := len(buf)
	buf = p.AppendReplicas(id, buf)
	ms := buf[start:]
	slices.SortFunc(ms, func(a, b topology.MachineID) int {
		if la, lb := p.Load(a), p.Load(b); !floatEq(la, lb) {
			return cmp.Compare(lb, la)
		}
		return cmp.Compare(a, b)
	})
	return buf
}

// removalKeepsSpread reports whether removing block id's replica on m
// keeps the block across at least minRacks racks. The per-rack replica
// counts the placement already maintains answer this in O(1).
func removalKeepsSpread(p *Placement, id BlockID, m topology.MachineID, minRacks int) bool {
	rack, err := p.Cluster().RackOf(m)
	if err != nil {
		return false
	}
	b, ok := p.blocks[id]
	if !ok {
		return false
	}
	spread := len(b.rackCount)
	if b.rackCount[rack] == 1 {
		spread--
	}
	return spread >= minRacks
}
