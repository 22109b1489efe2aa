package main

import (
	"fmt"

	"aurora/internal/core"
)

// loadRatio is the paper's objective λ (the maximum machine load, a
// machine's load being Σ over its blocks of popularity / replica
// count) divided by the mean machine load, under the popularities p
// currently holds. 1.0 is perfect balance.
func loadRatio(p *core.Placement) (float64, error) {
	var total float64
	for _, l := range p.Loads() {
		total += l
	}
	if total <= 0 {
		return 0, fmt.Errorf("load ratio: placement carries no load")
	}
	return p.Cost() / (total / float64(p.Cluster().NumMachines())), nil
}

// realizedSOLRatio is loadRatio's objective for placement p evaluated
// against the realized per-block access counts of one phase p served:
// each access to a block loads each of its replicas by 1/k, and the
// ratio is the largest machine load over the mean. Blocks p does not
// hold are ignored. It reads only the accessed blocks' replica lists, so
// it is cheap on a large namespace, and p is not modified.
func realizedSOLRatio(p *core.Placement, counts map[core.BlockID]int64) (float64, error) {
	loads := make([]float64, p.Cluster().NumMachines())
	var total, lambda float64
	for id, c := range counts {
		reps := p.Replicas(id)
		if len(reps) == 0 || c <= 0 {
			continue
		}
		share := float64(c) / float64(len(reps))
		for _, m := range reps {
			loads[m] += share
		}
		total += float64(c)
	}
	if total <= 0 {
		return 0, fmt.Errorf("realized SOL: no accesses to placed blocks")
	}
	for _, l := range loads {
		lambda = max(lambda, l)
	}
	return lambda / (total / float64(len(loads))), nil
}
