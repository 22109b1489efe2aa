package sim

import (
	"testing"
	"unsafe"
)

func TestFifoBasics(t *testing.T) {
	var q fifo
	if _, ok := q.peek(); ok {
		t.Error("empty fifo peeked a value")
	}
	q.push(1)
	q.push(2)
	q.push(3)
	if idx, ok := q.peek(); !ok || idx != 1 {
		t.Errorf("peek = %d/%v, want 1/true", idx, ok)
	}
	q.pop()
	if idx, ok := q.peek(); !ok || idx != 2 {
		t.Errorf("peek after pop = %d/%v, want 2/true", idx, ok)
	}
	q.pop()
	q.pop()
	if _, ok := q.peek(); ok {
		t.Error("drained fifo peeked a value")
	}
}

func TestFifoCompaction(t *testing.T) {
	var q fifo
	const n = 20000
	for i := int32(0); i < n; i++ {
		q.push(i)
	}
	for i := int32(0); i < n; i++ {
		idx, ok := q.peek()
		if !ok || idx != i {
			t.Fatalf("peek %d = %d/%v", i, idx, ok)
		}
		q.pop()
	}
	// Compaction must have shrunk the retained prefix.
	if len(q.items) > n/2 {
		t.Errorf("fifo never compacted: %d items retained", len(q.items))
	}

	// Steady state: a queue holding a constant backlog cycles through
	// many compactions. Compaction slides the tail in place, so once the
	// backing array has reached its working size push and pop allocate
	// nothing, and the queue still yields its items in order.
	q = fifo{}
	const backlog = 3000
	next, want := int32(0), int32(0)
	cycle := func() {
		for i := 0; i < 10000; i++ {
			q.push(next)
			next++
			if idx, ok := q.peek(); !ok || idx != want {
				t.Fatalf("peek = %d/%v, want %d", idx, ok, want)
			}
			q.pop()
			want++
		}
	}
	for i := int32(0); i < backlog; i++ {
		q.push(next)
		next++
	}
	cycle() // reach the working capacity
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state push/pop: %v allocs per 10k ops, want 0", allocs)
	}
	if got := len(q.items) - q.pos; got != backlog {
		t.Errorf("backlog = %d, want %d", got, backlog)
	}
}

func TestFifoPendingLive(t *testing.T) {
	arena := []task{{done: true}, {done: true}, {done: false}}
	var q fifo
	q.push(0)
	q.push(1)
	q.push(2)
	if !q.pendingLive(arena) {
		t.Fatal("live task not found past tombstones")
	}
	if idx, _ := q.peek(); idx != 2 {
		t.Errorf("peek after pendingLive = %d, want 2 (tombstones skipped)", idx)
	}
	arena[2].done = true
	if q.pendingLive(arena) {
		t.Error("all-done queue reported live tasks")
	}
}

// The arena holds one task per task of the trace (~1.3M at paper
// shape), so its layout is part of the simulator's memory budget.
func TestTaskPacking(t *testing.T) {
	if got := unsafe.Sizeof(task{}); got != 24 {
		t.Errorf("sizeof(task) = %d bytes, want 24", got)
	}
}
