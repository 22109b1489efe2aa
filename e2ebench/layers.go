package main

import (
	"strings"
	"time"

	"aurora/internal/core"
	"aurora/internal/popularity"
)

// liveE2E fills the gated end-to-end metrics and the issue-named detail
// lines of a live workload from one measured interval.
func liveE2E(rep *report, primary string, h halfStats) {
	var all []opSample
	for _, rec := range h.recs {
		all = append(all, rec.samples...)
	}
	byKind := func(kind string) []float64 {
		var ss []opSample
		for _, s := range all {
			if s.kind == kind {
				ss = append(ss, s)
			}
		}
		return latencies(ss)
	}
	prim := byKind(primary)
	rep.e2e["op_p50_ms"] = metric{percentile(prim, 0.5), "ms"}
	var ok, failed, userBytes int64
	for _, s := range all {
		if s.failed {
			failed++
			continue
		}
		ok++
		userBytes += s.bytes
	}
	secs := h.elapsed.Seconds()
	var pdur, conv, moved []float64
	for _, p := range h.periods {
		pdur = append(pdur, ms(p.dur))
		if p.converge > 0 {
			conv = append(conv, ms(p.converge))
		}
		moved = append(moved, float64(p.moved()))
	}
	rep.e2e["period_p50_ms"] = metric{median(pdur), "ms"}
	// The mean over phases, as on sim-paper.
	sol := mean(h.solRatios)
	if len(h.solRatios) == 0 {
		rep.attempted++
		rep.failed++
		rep.failures = append(rep.failures, "realized SOL: no phase scored")
	}
	rep.e2e["realized_sol_ratio"] = metric{sol, "ratio"}

	for _, k := range []struct{ kind, name string }{{opRead, "read"}, {opCreate, "write"}, {opLookup, "lookup"}} {
		lat := byKind(k.kind)
		if len(lat) == 0 {
			continue
		}
		rep.show(k.name+"_p50_ms", percentile(lat, 0.5), "ms", len(lat))
		rep.show(k.name+"_p99_ms", percentile(lat, 0.99), "ms", len(lat))
	}
	rep.show("ops_per_s", float64(ok)/secs, "1/s", 0)
	rep.show("goodput_MBps", float64(userBytes)/secs/1e6, "MB/s", 0)
	rep.show("failed_op_frac", float64(failed)/float64(max(ok+failed, 1)), "ratio", int(ok+failed))
	rep.show("period_p50_ms", median(pdur), "ms", len(pdur))
	if len(conv) > 0 {
		rep.show("converge_p50_ms", median(conv), "ms", len(conv))
	}
	rep.show("blocks_moved_per_period", mean(moved), "count", len(moved))
	rep.show("realized_sol_ratio", sol, "ratio", len(h.solRatios))
	rep.show("measured_s", secs, "s", 0)
}

// rpcMetricName maps a message type to its per-layer rpc.* name.
func rpcMetricName(typ string) string {
	switch typ {
	case "get_locations", "add_block", "heartbeat", "heartbeat_delta", "block_received":
		return typ
	case "create_file":
		return "create"
	case "complete_file":
		return "complete"
	}
	return ""
}

// spanLayers fills the per-layer metrics that come from spans.
func spanLayers(rep *report, spans []span) {
	ix := newSpanIndex(spans)
	var (
		readSelf, createSelf, readGap, createGap     []float64
		streamWrite, streamRead, hopSelf, transfer   []float64
		storePut, storeGet, storeDel                 []float64
		clientOps, clientCalls, failovers, reads     int64
		wire, frames, clientStreams, clientUser, put int64
		written                                      int64
		rpcLat                                       = make(map[string][]float64)
		periods                                      [][2]int64
		lookups                                      []span
	)
	for _, s := range spans {
		d := float64(s.dur())
		switch {
		case s.Name == "client.read":
			clientOps++
			reads++
			readSelf = append(readSelf, float64(ix.self(s))/1e6)
			readGap = append(readGap, ix.pathGapFrac(s))
			perBlock := make(map[string]int)
			for _, c := range ix.childrenOf(s) {
				if c.Name == "stream.read" {
					perBlock[c.Key]++
				}
			}
			for _, n := range perBlock {
				failovers += int64(n - 1)
			}
		case s.Name == "client.create":
			clientOps++
			createSelf = append(createSelf, float64(ix.self(s))/1e6)
			createGap = append(createGap, ix.pathGapFrac(s))
		case strings.HasPrefix(s.Name, "client."):
			clientOps++
		case s.Name == "namenode.period":
			periods = append(periods, [2]int64{s.Start, s.End})
		case s.Name == "stream.write" || s.Name == "stream.read" || s.Name == "pipeline.hop":
			wire += s.WireBytes
			if s.Node == "client" {
				clientStreams++
				frames += s.Frames
				clientUser += s.UserBytes
				if s.Name == "stream.write" {
					streamWrite = append(streamWrite, d/1e6)
					written += s.UserBytes
				} else {
					streamRead = append(streamRead, d/1e6)
				}
			} else {
				hopSelf = append(hopSelf, float64(ix.self(s))/1e6)
			}
		case s.Name == "replicate.transfer":
			transfer = append(transfer, d/1e6)
		case s.Name == "store.put":
			storePut = append(storePut, d/1e3)
			put += s.UserBytes
		case s.Name == "store.get":
			storeGet = append(storeGet, d/1e3)
		case s.Name == "store.delete":
			storeDel = append(storeDel, d/1e3)
		case strings.HasPrefix(s.Name, "rpc."):
			typ := strings.TrimPrefix(s.Name, "rpc.")
			if n := rpcMetricName(typ); n != "" && !s.Err {
				rpcLat[n] = append(rpcLat[n], d/1e6)
			}
			if typ == "get_locations" && s.Node == "client" && s.Parent != 0 {
				lookups = append(lookups, s)
			}
		}
		// Client calls count only inside timed client operations, not
		// those of the set-up's load or period-scale's access replay.
		if s.Node == "client" && s.Parent != 0 && (strings.HasPrefix(s.Name, "rpc.") || strings.HasPrefix(s.Name, "stream.")) {
			clientCalls++
		}
	}
	rep.setLayer("client.read.self_ms", mean(readSelf))
	rep.setLayer("client.create.self_ms", mean(createSelf))
	if clientOps > 0 {
		rep.setLayer("client.rpcs_per_op", float64(clientCalls)/float64(clientOps))
	}
	if reads > 0 {
		rep.setLayer("client.failover_per_1k_reads", 1000*float64(failovers)/float64(reads))
	}
	for _, n := range []string{"get_locations", "create", "add_block", "complete", "heartbeat", "heartbeat_delta", "block_received"} {
		lat := rpcLat[n]
		rep.setLayer("rpc."+n+".count", float64(len(lat)))
		rep.setLayer("rpc."+n+".p50_ms", percentile(lat, 0.5))
		rep.setLayer("rpc."+n+".p99_ms", percentile(lat, 0.99))
	}
	if clientUser > 0 {
		rep.setLayer("stream.wire_bytes_per_user_byte", float64(wire)/float64(clientUser))
	}
	if clientStreams > 0 {
		rep.setLayer("stream.frames_per_block", float64(frames)/float64(clientStreams))
	}
	rep.setLayer("stream.write.ms", mean(streamWrite))
	rep.setLayer("pipeline.hop.self_ms", mean(hopSelf))
	rep.setLayer("stream.read.ms", mean(streamRead))
	rep.setLayer("store.put.us", mean(storePut))
	rep.setLayer("store.get.us", mean(storeGet))
	rep.setLayer("store.delete.us", mean(storeDel))
	if written > 0 {
		rep.setLayer("store.bytes_written_per_user_byte", float64(put)/float64(written))
	}
	rep.setLayer("replicate.transfer.ms", mean(transfer))
	var in, out []float64
	for _, l := range lookups {
		blocked := false
		for _, p := range periods {
			if l.Start < p[1] && l.End > p[0] {
				blocked = true
				break
			}
		}
		if blocked {
			in = append(in, float64(l.dur())/1e6)
		} else {
			out = append(out, float64(l.dur())/1e6)
		}
	}
	rep.setLayer("lookup.in_period.p99_ms", percentile(in, 0.99))
	rep.setLayer("lookup.out_period.p99_ms", percentile(out, 0.99))
	rep.setLayer("rollup.read.path_gap_frac", mean(readGap))
	rep.setLayer("rollup.create.path_gap_frac", mean(createGap))
	if len(lookups) > 0 {
		rep.note("lookups overlapping a period: %d of %d", len(in), len(lookups))
	}
}

// periodLayers fills the optimizer-phase metrics from traced periods.
func periodLayers(rep *report, ps []periodSample, ch *churn) {
	var dur, alg3, repl, search, ops, rs, ev []float64
	for _, p := range ps {
		if !p.traced {
			continue
		}
		dur = append(dur, ms(p.dur))
		alg3 = append(alg3, ms(p.alg3))
		repl = append(repl, ms(p.replicatePhase))
		search = append(search, ms(p.search))
		ops = append(ops, float64(p.searchOps))
		rs = append(rs, float64(p.replications))
		ev = append(ev, float64(p.evictions))
	}
	rep.setLayer("period.ms", mean(dur))
	rep.setLayer("alg3.solve_ms", mean(alg3))
	rep.setLayer("replicate_phase.ms", mean(repl))
	rep.setLayer("search.ms", mean(search))
	rep.setLayer("search.ops", mean(ops))
	rep.setLayer("replications", mean(rs))
	rep.setLayer("evictions", mean(ev))
	rep.setLayer("replica_churn_frac", ch.frac())
}

// monitorLayers replays per-phase block access counts into a standalone
// usage monitor with the reactive predictor the namenode runs (the
// window snapshot is the forecast): it times each Record and each
// per-period Snapshot.
func monitorLayers(rep *report, phases []map[core.BlockID]int64, bucket int64) error {
	mon, err := popularity.NewMonitor[core.BlockID](bucket, 2)
	if err != nil {
		return err
	}
	var records int64
	var recordTime, snapTime time.Duration
	for i, counts := range phases {
		now := int64(i) * bucket
		start := time.Now()
		for id, n := range counts {
			for j := int64(0); j < n; j++ {
				mon.Record(id, now)
			}
			records += n
		}
		recordTime += time.Since(start)
		start = time.Now()
		_ = mon.Snapshot(now + bucket)
		snapTime += time.Since(start)
	}
	if records > 0 {
		rep.setLayer("monitor.record.ns", float64(recordTime.Nanoseconds())/float64(records))
	}
	if len(phases) > 0 {
		rep.setLayer("predict.ms", ms(snapTime)/float64(len(phases)))
	}
	return nil
}

// liveLayers fills every per-layer metric of a traced live run.
func liveLayers(rep *report, primary string, spans []span, r *liveRun, untraced, traced halfStats) {
	spanLayers(rep, spans)
	periodLayers(rep, traced.periods, r.ch)
	durs, _, _ := r.cl.nn.MovementStats()
	var moves []float64
	for _, d := range durs {
		moves = append(moves, ms(d))
	}
	rep.setLayer("move.issue_to_confirm_ms", mean(moves))
	if err := monitorLayers(rep, traced.phaseCounts, int64(time.Second)); err != nil {
		rep.attempted++
		rep.failed++
		rep.failures = append(rep.failures, "monitor replay: "+err.Error())
	}
	prim := func(h halfStats) float64 {
		var ss []opSample
		for _, rec := range h.recs {
			for _, s := range rec.samples {
				if s.kind == primary {
					ss = append(ss, s)
				}
			}
		}
		return percentile(latencies(ss), 0.5)
	}
	if u := prim(untraced); u > 0 {
		rep.setLayer("trace.overhead_frac", prim(traced)/u-1)
		rep.note("primary op p50: untraced %.4f ms, traced %.4f ms", u, prim(traced))
	}
}
