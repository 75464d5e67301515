package simtime

import (
	"container/heap"
	"fmt"
	"reflect"
	"testing"
)

// refQueue is the container/heap reference the scheduler's concrete
// heap must match sift for sift.
type refQueue []*Event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*Event)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func (q refQueue) names() []string {
	out := make([]string, len(q))
	for i, e := range q {
		out[i] = e.name
	}
	return out
}

// TestEventHeapMatchesContainerHeap drives the scheduler through a
// deterministic mix of schedules (with many same-instant ties), cancels
// from arbitrary heap positions and steps, mirroring each operation on a
// container/heap reference. The array layout — and so PendingNames —
// must be identical after every operation, which is what keeps
// leak-diagnostic output unchanged by the concrete heap.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	s := NewScheduler()
	var ref refQueue
	r := NewRand(7)
	live := map[string]*Event{}
	for op := 0; op < 20000; op++ {
		switch k := r.Intn(10); {
		case k < 5:
			name := fmt.Sprintf("e%d", op)
			e := s.After(Duration(r.Intn(8)), name, func() {})
			live[name] = e
			heap.Push(&ref, &Event{when: e.when, seq: e.seq, name: name})
		case k < 7 && len(ref) > 0:
			i := r.Intn(len(ref))
			victim := ref[i].name
			s.Cancel(live[victim])
			delete(live, victim)
			heap.Remove(&ref, i)
		case len(ref) > 0:
			want := heap.Pop(&ref).(*Event).name
			if head := s.queue[0].name; head != want {
				t.Fatalf("op %d: head %q, reference head %q", op, head, want)
			}
			delete(live, want)
			s.step()
		}
		if got, want := s.PendingNames(), ref.names(); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: layout diverged\n got %v\nwant %v", op, got, want)
		}
	}
}
