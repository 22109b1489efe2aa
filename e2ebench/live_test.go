package main

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/topology"
)

// The decisions the observer hooks log, replayed onto a copy of the
// placement, reproduce the optimizer's result exactly: the period-scale
// workload keeps its copy of the namenode's placement this way.
func TestApplyEventsReplaysAPeriod(t *testing.T) {
	cl, err := topology.Uniform(3, 4, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	var specs []core.BlockSpec
	for id := core.BlockID(1); id <= 60; id++ {
		specs = append(specs, core.BlockSpec{ID: id, MinReplicas: 3, MinRacks: 2})
	}
	p, err := core.NewPlacement(cl, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if err := core.InitialPlace(p, s.ID, 3, topology.NoMachine); err != nil {
			t.Fatal(err)
		}
	}
	mirror := p.Clone()
	for _, s := range specs {
		// A skewed popularity, so the period replicates, evicts and moves.
		if err := p.SetPopularity(s.ID, float64(1000/int(s.ID))); err != nil {
			t.Fatal(err)
		}
	}
	var (
		ps       periodSample
		lastRepl time.Time
		log      []optEvent
	)
	opts := hooks(core.OptimizerOptions{Epsilon: 0.1, RackAware: true, ReplicationBudget: 240, MaxReplicationMoves: 100},
		&ps, &lastRepl, newChurn(), 0, &log)
	if _, err := core.Optimize(p, opts); err != nil {
		t.Fatal(err)
	}
	if ps.replications == 0 || len(log) == 0 {
		t.Fatalf("period made no decisions (replications %d, events %d)", ps.replications, len(log))
	}
	if err := applyEvents(mirror, log); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if got, want := mirror.Replicas(s.ID), p.Replicas(s.ID); !slices.Equal(got, want) {
			t.Errorf("block %d: replayed replicas %v, optimizer's %v", s.ID, got, want)
		}
	}
}

func TestChurnCountsLaterEvictions(t *testing.T) {
	ch := newChurn()
	var ps periodSample
	var lastRepl time.Time
	p0 := hooks(core.OptimizerOptions{}, &ps, &lastRepl, ch, 0, nil)
	p0.OnReplicate(1, 0, 5)
	p0.OnReplicate(2, 0, 6)
	p0.OnEvict(2, 6) // same period: not churn
	p1 := hooks(core.OptimizerOptions{}, &ps, &lastRepl, ch, 1, nil)
	p1.OnEvict(1, 5)
	p1.OnEvict(3, 1) // never added by a period
	if !approx(ch.frac(), 0.5) {
		t.Errorf("churn = %v (%d of %d), want 0.5", ch.frac(), ch.undone, ch.added)
	}
}

func TestContentIsSeeded(t *testing.T) {
	a, b := content(7, "/x", 100), content(7, "/x", 100)
	if !bytes.Equal(a, b) || len(a) != 100 {
		t.Fatalf("same seed and path gave different content")
	}
	if bytes.Equal(a, content(8, "/x", 100)) || bytes.Equal(a, content(7, "/y", 100)) {
		t.Errorf("content does not depend on seed and path")
	}
}
