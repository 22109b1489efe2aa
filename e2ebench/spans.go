package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program at a public seam. Spans of one client operation share the
// operation's span as parent (set explicitly on the client side);
// datanode-side spans carry the block key and are linked to the stream
// that delivered the block to their node by linkBlockSpans.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`    // file path or "blk:<id>"
	Node   string `json:"node,omitempty"`   // where the call was made: "client", a datanode address, "namenode", "sim"
	Target string `json:"target,omitempty"` // peer address of transport spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Wire accounting for stream spans: frame bytes (length prefix,
	// header and payload) and frame count in both directions, and the
	// chunk payload bytes among them.
	WireBytes int64 `json:"wire_bytes,omitempty"`
	Frames    int64 `json:"frames,omitempty"`
	UserBytes int64 `json:"user_bytes,omitempty"`
	Err       bool  `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. A nil tracer, or one switched off,
// records nothing, so untraced code paths pay one atomic load.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// now is the span clock: nanoseconds since the tracer was made.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

// add records s, assigning an ID when it has none.
func (t *tracer) add(s span) {
	if !t.enabled() {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// unionLen is the total length of the union of the intervals, each
// clipped to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range clipped {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, len(children))
	for i, c := range children {
		iv[i] = [2]int64{c.Start, c.End}
	}
	return s.dur() - unionLen(iv, s.Start, s.End)
}

// isDeliveryStream reports whether spans of this name carry a block to
// the datanode at their Target: a datanode-side span for that block on
// that node, lying inside one of them, is its child.
func isDeliveryStream(name string) bool {
	switch name {
	case "stream.write", "pipeline.hop", "stream.read", "replicate.transfer":
		return true
	}
	return false
}

// linkBlockSpans assigns parents to unparented datanode-side spans
// (store calls, downstream hops, block reports made on the write path):
// the parent is the latest-starting delivery stream for the same block
// whose Target is the span's node and whose interval contains it.
func linkBlockSpans(spans []span) {
	type nodeKey struct{ key, node string }
	streams := make(map[nodeKey][]int)
	for i, s := range spans {
		if isDeliveryStream(s.Name) && s.Key != "" {
			k := nodeKey{s.Key, s.Target}
			streams[k] = append(streams[k], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || s.Key == "" || s.Node == "" || s.Node == "client" {
			continue
		}
		best := -1
		for _, j := range streams[nodeKey{s.Key, s.Node}] {
			p := spans[j]
			if j == i || p.Start > s.Start || p.End < s.End {
				continue
			}
			if best < 0 || p.Start > spans[best].Start {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
}

// spanIndex gives O(1) child lookup over a linked span set.
type spanIndex struct {
	spans    []span
	children map[int64][]int
}

func newSpanIndex(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int64][]int)}
	for i, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	return ix
}

func (ix *spanIndex) childrenOf(s span) []span {
	out := make([]span, 0, len(ix.children[s.ID]))
	for _, j := range ix.children[s.ID] {
		out = append(out, ix.spans[j])
	}
	return out
}

func (ix *spanIndex) self(s span) int64 { return selfTime(s, ix.childrenOf(s)) }

// chain is the sequence of s's children it was blocked on: the child
// that finished last, then, before that child started, the child that
// finished last, and so on back to s's start. Children overlapping a
// chain member without being on the chain ran in its shadow.
func (ix *spanIndex) chain(s span) []span {
	kids := ix.childrenOf(s)
	sort.Slice(kids, func(i, j int) bool { return kids[i].End > kids[j].End })
	var out []span
	bound := int64(math.MaxInt64)
	for _, k := range kids {
		if k.End <= bound {
			out = append(out, k)
			bound = k.Start
		}
	}
	return out
}

// blockingPath is root followed, recursively, by the chains it was
// blocked on: the calls the operation waited for, layer by layer.
func (ix *spanIndex) blockingPath(root span) []span {
	path := []span{root}
	for _, c := range ix.chain(root) {
		path = append(path, ix.blockingPath(c)...)
	}
	return path
}

// pathGapFrac is how far the self times summed along root's blocking
// path fall short of root's duration, as a share of it: the time only
// overlapped work (read-ahead, parallel pipeline hops) accounts for.
func (ix *spanIndex) pathGapFrac(root span) float64 {
	if root.dur() <= 0 {
		return 0
	}
	var sum int64
	for _, s := range ix.blockingPath(root) {
		sum += ix.self(s)
	}
	return float64(root.dur()-sum) / float64(root.dur())
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			//lint:ignore errcheck the encode error is the one to report
			_ = f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		//lint:ignore errcheck the flush error is the one to report
		_ = f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
