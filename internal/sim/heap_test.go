package sim

import (
	"container/heap"
	"math/rand/v2"
	"testing"
)

// refHeap is the container/heap reference the typed completionHeap
// replaced.
type refHeap []completion

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// The typed heap must pop completions in exactly the order
// container/heap does over random interleavings of pushes and pops.
// Times collide often (a small range) so the seq tie-break is
// exercised; seq is unique, as in the simulator.
func TestCompletionHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 7))
	for round := 0; round < 200; round++ {
		var got completionHeap
		var want refHeap
		var seq int64
		timeRange := int64(1 + rng.IntN(50))
		for op := 0; op < 500; op++ {
			if len(got) == 0 || rng.IntN(3) > 0 {
				seq++
				c := completion{at: rng.Int64N(timeRange), seq: seq, job: int32(op)}
				got.push(c)
				heap.Push(&want, c)
				continue
			}
			if at, _ := got.peek(); at != want[0].at {
				t.Fatalf("round %d op %d: peek %d, want %d", round, op, at, want[0].at)
			}
			if g, w := got.pop(), heap.Pop(&want).(completion); g != w {
				t.Fatalf("round %d op %d: pop %+v, want %+v", round, op, g, w)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(completion); g != w {
				t.Fatalf("round %d drain: pop %+v, want %+v", round, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("round %d: %d completions left after drain", round, len(got))
		}
	}
}
