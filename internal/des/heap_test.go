package des

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is container/heap over event pointers: the queue the typed
// eventHeap replaced, kept here as its ordering oracle.
type refHeap []*event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// eventKey is an event's ordering key.
func eventKey(e *event) [4]uint64 { return [4]uint64{uint64(e.at), e.tie, e.home, e.seq} }

// TestEventHeapMatchesContainerHeap drives the typed heap and
// container/heap with the same seeded push/pop interleavings — keys
// drawn from small ranges so that time, tiebreak and home collide and
// every level of event.less decides some comparisons — and requires
// identical pop sequences and identical queue layouts throughout.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got eventHeap
		var want refHeap
		var seq uint64
		for step := 0; step < 2000; step++ {
			if len(got) == 0 || rng.Intn(3) > 0 {
				seq++
				e := event{
					at:   int64(rng.Intn(8)),
					tie:  uint64(rng.Intn(4)),
					home: uint64(rng.Intn(4)),
					seq:  seq,
				}
				got.push(e)
				heap.Push(&want, &e)
			} else {
				g, w := got.pop(), heap.Pop(&want).(*event)
				if eventKey(&g) != eventKey(w) {
					t.Fatalf("seed %d step %d: typed heap popped %+v, container/heap %+v", seed, step, g, *w)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: sizes %d vs %d", seed, step, len(got), len(want))
			}
			for i := range got {
				if eventKey(&got[i]) != eventKey(want[i]) {
					t.Fatalf("seed %d step %d: layout differs at %d: %+v vs %+v", seed, step, i, got[i], *want[i])
				}
			}
		}
	}
}
