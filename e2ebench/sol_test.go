package main

import (
	"testing"

	"aurora/internal/core"
	"aurora/internal/topology"
)

// handPlacement: racks {0,1} and {2,3}; block 1 on machines 0 and 2,
// block 2 on 1, block 3 on 3.
func handPlacement(t *testing.T) *core.Placement {
	t.Helper()
	cl, err := topology.Uniform(2, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	var specs []core.BlockSpec
	for id := core.BlockID(1); id <= 3; id++ {
		specs = append(specs, core.BlockSpec{ID: id, MinReplicas: 1, MinRacks: 1})
	}
	p, err := core.NewPlacement(cl, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		b core.BlockID
		m topology.MachineID
	}{{1, 0}, {1, 2}, {2, 1}, {3, 3}} {
		if err := p.AddReplica(r.b, r.m); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestRealizedSOLRatio(t *testing.T) {
	p := handPlacement(t)
	// Loads: m0 = m2 = 4/2, m1 = 1, m3 = 3; mean 8/4 = 2, λ = 3.
	counts := map[core.BlockID]int64{1: 4, 2: 1, 3: 3, 99: 50}
	got, err := realizedSOLRatio(p, counts)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 1.5) {
		t.Errorf("realized SOL ratio = %v, want 1.5", got)
	}
	// The placement's own objective under the same popularities agrees.
	q := p.Clone()
	for id, c := range counts {
		if id != 99 {
			if err := q.SetPopularity(id, float64(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	lr, err := loadRatio(q)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lr, 1.5) {
		t.Errorf("loadRatio = %v, want 1.5", lr)
	}
	for _, id := range p.Blocks() {
		if pop := p.PerReplicaPopularity(id); !approx(pop, 0) {
			t.Errorf("realizedSOLRatio changed block %d popularity to %v", id, pop)
		}
	}
	// Perfect balance reads 1.
	even, err := realizedSOLRatio(p, map[core.BlockID]int64{1: 2, 2: 1, 3: 1})
	if err != nil || !approx(even, 1) {
		t.Errorf("balanced ratio = %v, %v; want 1", even, err)
	}
	if _, err := realizedSOLRatio(p, map[core.BlockID]int64{99: 3}); err == nil {
		t.Errorf("no placed accesses: want an error")
	}
}
