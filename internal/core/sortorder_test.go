package core

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"aurora/internal/topology"
)

// racksByLoadSortSlice and replicasByLoadDescendingSortSlice are
// sort.Slice references for racksByLoad and
// appendReplicasByLoadDescending, with the same comparators.
func racksByLoadSortSlice(p *Placement) []topology.RackID {
	racks := p.Cluster().Racks()
	sort.Slice(racks, func(a, b int) bool {
		la, lb := p.RackLoadOf(racks[a]), p.RackLoadOf(racks[b])
		if !floatEq(la, lb) {
			return la < lb
		}
		if p.rackUsed[racks[a]] != p.rackUsed[racks[b]] {
			return p.rackUsed[racks[a]] < p.rackUsed[racks[b]]
		}
		return racks[a] < racks[b]
	})
	return racks
}

func replicasByLoadDescendingSortSlice(p *Placement, id BlockID) []topology.MachineID {
	ms := p.Replicas(id)
	sort.Slice(ms, func(a, b int) bool {
		la, lb := p.Load(ms[a]), p.Load(ms[b])
		if !floatEq(la, lb) {
			return la > lb
		}
		return ms[a] < ms[b]
	})
	return ms
}

// floatEq is not transitive (a≈b and b≈c do not imply a≈c), so the
// load comparators are not strict weak orders and the result depends on
// the exact sequence of comparisons the sort makes. sort.Slice and
// slices.SortFunc run the same generated pdqsort; this pins that they
// produce the same order on loads built from chains of near-ties, with
// enough racks and holders to leave the insertion-sort range.
func TestLoadOrderSortsMatchSortSlice(t *testing.T) {
	const racks, perRack = 40, 2
	cl, err := topology.Uniform(racks, perRack, 100, 2)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	machines := racks * perRack
	rng := rand.New(rand.NewPCG(5, 11))
	// Steps of 1.5e-9 sit inside floatEq's tolerance (~2e-9 near 1)
	// pairwise, but two steps apart do not.
	base := []float64{0, 1, 2}
	for round := 0; round < 300; round++ {
		specs := []BlockSpec{{ID: 1, MinReplicas: 1, MinRacks: 1}} // probe block, popularity 0
		for m := 0; m < machines; m++ {
			pop := base[rng.IntN(len(base))] + float64(rng.IntN(4))*1.5e-9
			specs = append(specs, BlockSpec{ID: BlockID(m + 2), Popularity: pop, MinReplicas: 1, MinRacks: 1})
		}
		p, err := NewPlacement(cl, specs)
		if err != nil {
			t.Fatalf("NewPlacement: %v", err)
		}
		for m := 0; m < machines; m++ {
			if rng.IntN(4) == 0 {
				continue // leave some machines empty: rackUsed tie-breaks differ
			}
			if err := p.AddReplica(BlockID(m+2), topology.MachineID(m)); err != nil {
				t.Fatalf("AddReplica: %v", err)
			}
		}
		for m := 0; m < machines; m++ {
			if rng.IntN(2) == 0 {
				if err := p.AddReplica(1, topology.MachineID(m)); err != nil {
					t.Fatalf("AddReplica probe: %v", err)
				}
			}
		}
		if got, want := racksByLoad(p), racksByLoadSortSlice(p); !slices.Equal(got, want) {
			t.Fatalf("round %d: racksByLoad = %v, sort.Slice order %v", round, got, want)
		}
		got := appendReplicasByLoadDescending(p, 1, []topology.MachineID{99})
		if want := replicasByLoadDescendingSortSlice(p, 1); got[0] != 99 || !slices.Equal(got[1:], want) {
			t.Fatalf("round %d: appendReplicasByLoadDescending = %v, sort.Slice order %v", round, got[1:], want)
		}
	}
}
