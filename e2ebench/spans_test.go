package main

import "testing"

func TestUnionLen(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 25}}
	if got := unionLen(iv, 0, 30); got != 20 {
		t.Errorf("unionLen = %d, want 20", got)
	}
	if got := unionLen(iv, 8, 22); got != 9 {
		t.Errorf("clipped unionLen = %d, want 9", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Errorf("empty unionLen = %d", got)
	}
}

func TestSelfTime(t *testing.T) {
	root := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 70}, {Start: 95, End: 120}}
	// Covered: [10,40] + [60,70] + [95,100] = 45.
	if got := selfTime(root, kids); got != 55 {
		t.Errorf("selfTime = %d, want 55", got)
	}
}

// A read of three blocks where the first two overlapped (read-ahead):
// the blocking path is the last block, then the one before it that
// finished by the time the last started; the first block's time before
// the second began is only overlapped work.
func TestBlockingPathAndGap(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.read", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "stream.read", Start: 0, End: 40},
		{ID: 3, Parent: 1, Name: "stream.read", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "stream.read", Start: 60, End: 90},
		{ID: 5, Parent: 4, Name: "store.get", Start: 65, End: 75},
	}
	ix := newSpanIndex(spans)
	var ids []int64
	for _, s := range ix.blockingPath(spans[0]) {
		ids = append(ids, s.ID)
	}
	want := []int64{1, 4, 5, 3}
	if len(ids) != len(want) {
		t.Fatalf("blocking path %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("blocking path %v, want %v", ids, want)
		}
	}
	// Self times on the path: read 10, block 3 20, its get 10, block 2
	// 30 — 70 of 100.
	if got := ix.pathGapFrac(spans[0]); !approx(got, 0.3) {
		t.Errorf("pathGapFrac = %v, want 0.3", got)
	}
	if got := ix.self(spans[3]); got != 20 {
		t.Errorf("self of block 3 = %d, want 20", got)
	}
}

// Datanode-side spans attach to the stream that delivered the block to
// their node: the head's store put belongs to the client's stream even
// though the head's own downstream hop is open around it.
func TestLinkBlockSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "stream.write", Key: "blk:7", Node: "client", Target: "A", Start: 0, End: 100},
		{ID: 2, Name: "pipeline.hop", Key: "blk:7", Node: "A", Target: "B", Start: 10, End: 90},
		{ID: 3, Name: "store.put", Key: "blk:7", Node: "A", Start: 50, End: 60},
		{ID: 4, Name: "store.put", Key: "blk:7", Node: "B", Start: 40, End: 50},
		{ID: 5, Name: "store.put", Key: "blk:8", Node: "B", Start: 40, End: 50},
		{ID: 6, Name: "rpc.heartbeat", Node: "B", Start: 40, End: 50},
	}
	linkBlockSpans(spans)
	want := map[int64]int64{1: 0, 2: 1, 3: 1, 4: 2, 5: 0, 6: 0}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d (%s on %s) parent %d, want %d", s.ID, s.Name, s.Node, s.Parent, want[s.ID])
		}
	}
	ix := newSpanIndex(spans)
	// Hop self time: 80 minus B's 10ms put.
	if got := ix.self(spans[1]); got != 70 {
		t.Errorf("hop self = %d, want 70", got)
	}
}
