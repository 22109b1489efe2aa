package core

import (
	"cmp"
	"fmt"
	"slices"

	"aurora/internal/topology"
)

// InitialPlace implements Algorithm 4 of the paper: greedy initial
// placement of a new block.
//
// Given a block with node-level factor k (k >= the block's MinRacks ρ)
// and an optional writer machine:
//
//   - the first replica goes to the writer machine if the block was
//     written by a task (pass writer != topology.NoMachine), otherwise to
//     the least-loaded machine in the least-loaded rack;
//   - the next ρ-1 replicas go to the least-loaded machines of the next
//     ρ-1 least-loaded racks (one per rack), establishing the rack
//     spread;
//   - the remaining k-ρ replicas go to the least-loaded machines among
//     the ρ racks already chosen, in ascending load order.
//
// Machines that are full or already hold the block are skipped. If the
// chosen racks run out of capacity, placement falls back to the
// least-loaded machines anywhere in the cluster (a robustness deviation
// from the paper, which assumes capacity is available); if the whole
// cluster is full, ErrMachineFull is returned with the block partially
// placed.
func InitialPlace(p *Placement, id BlockID, k int, writer topology.MachineID) error {
	spec, err := p.Spec(id)
	if err != nil {
		return err
	}
	rho := spec.MinRacks
	if k < spec.MinReplicas {
		k = spec.MinReplicas
	}
	if k > p.Cluster().NumMachines() {
		k = p.Cluster().NumMachines()
	}
	placed := p.ReplicaCount(id)
	if placed >= k {
		return nil
	}

	// First replica.
	if placed == 0 {
		m := writer
		if m == topology.NoMachine || !canHost(p, id, m) {
			m = leastLoadedHost(p, id, racksByLoad(p), nil)
		}
		if m == topology.NoMachine {
			return fmt.Errorf("%w: no machine can host block %d", ErrMachineFull, id)
		}
		if err := p.AddReplica(id, m); err != nil {
			return fmt.Errorf("core: initial placement of block %d: %w", id, err)
		}
		placed = 1
	}

	// Establish rack spread: one replica in each of the next
	// least-loaded racks until ρ racks hold the block.
	for p.RackSpread(id) < rho && placed < k {
		m := leastLoadedHost(p, id, racksByLoad(p), func(r topology.RackID) bool {
			return blockInRack(p, id, r) // skip racks already holding it
		})
		if m == topology.NoMachine {
			break // cannot widen spread; fall through to fill remaining
		}
		if err := p.AddReplica(id, m); err != nil {
			return fmt.Errorf("core: rack-spread placement of block %d: %w", id, err)
		}
		placed++
	}

	// Fill the remaining replicas inside the chosen racks, least-loaded
	// machines first.
	for placed < k {
		m := leastLoadedHost(p, id, racksByLoad(p), func(r topology.RackID) bool {
			return !blockInRack(p, id, r) // only racks already holding it
		})
		if m == topology.NoMachine {
			// Chosen racks exhausted: fall back to anywhere.
			m = leastLoadedHost(p, id, racksByLoad(p), nil)
		}
		if m == topology.NoMachine {
			return fmt.Errorf("%w: cluster cannot host %d replicas of block %d", ErrMachineFull, k, id)
		}
		if err := p.AddReplica(id, m); err != nil {
			return fmt.Errorf("core: fill placement of block %d: %w", id, err)
		}
		placed++
	}
	return nil
}

// canHost reports whether machine m can accept a new replica of block id.
func canHost(p *Placement, id BlockID, m topology.MachineID) bool {
	if p.HasReplica(id, m) {
		return false
	}
	return p.FreeCapacity(m) > 0
}

// blockInRack reports whether any machine in rack r holds block id.
func blockInRack(p *Placement, id BlockID, r topology.RackID) bool {
	for _, m := range p.Replicas(id) {
		if rack, err := p.Cluster().RackOf(m); err == nil && rack == r {
			return true
		}
	}
	return false
}

// racksByLoad returns rack IDs ordered by ascending total load, breaking
// ties by stored replica count and then ID. The usage tie-break matters
// when popularity is uniformly zero (a freshly written dataset): without
// it every block would pile into the first rack.
func racksByLoad(p *Placement) []topology.RackID {
	racks := p.Cluster().Racks()
	// p.rackUsed is maintained incrementally and equals the per-rack sum of
	// Used(m) the previous implementation recomputed here in O(M).
	slices.SortFunc(racks, func(a, b topology.RackID) int {
		if la, lb := p.RackLoadOf(a), p.RackLoadOf(b); !floatEq(la, lb) {
			return cmp.Compare(la, lb)
		}
		if c := cmp.Compare(p.rackUsed[a], p.rackUsed[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return racks
}

// leastLoadedHost scans racks in the given order (skipping racks where
// skipRack returns true) and returns the least-loaded machine that can
// host block id, or NoMachine. Ties break by stored replica count, then
// machine ID, so zero-popularity placement degrades to disk balancing.
func leastLoadedHost(p *Placement, id BlockID, racks []topology.RackID, skipRack func(topology.RackID) bool) topology.MachineID {
	b := p.blocks[id] // nil for an unknown block, which has no holders
	for _, r := range racks {
		if skipRack != nil && skipRack(r) {
			continue
		}
		ms, err := p.Cluster().MachinesInRack(r)
		if err != nil {
			continue
		}
		best := topology.NoMachine
		bestLoad := 0.0
		for _, m := range ms {
			if (b != nil && b.hasHolder(m)) || p.FreeCapacity(m) <= 0 {
				continue // same test as canHost, without a map lookup per machine
			}
			load := p.Load(m)
			if best == topology.NoMachine || load < bestLoad ||
				(floatEq(load, bestLoad) && p.Used(m) < p.Used(best)) {
				best, bestLoad = m, load
			}
		}
		if best != topology.NoMachine {
			return best
		}
	}
	return topology.NoMachine
}
