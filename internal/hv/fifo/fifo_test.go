package fifo

import (
	"math/rand"
	"testing"
)

// refQueue is the reference: a plain slice that appends at the tail and
// pops its head by copy-down.
type refQueue []int

func (r *refQueue) push(x int) { *r = append(*r, x) }

func (r refQueue) len() int { return len(r) }

func (r *refQueue) pop() int {
	x := (*r)[0]
	n := copy(*r, (*r)[1:])
	*r = (*r)[:n]
	return x
}

// TestMatchesReference runs random push/pop sequences, biased in turn
// towards growth and towards draining, on a FIFO and on the reference. The
// popped values, the length and the backing array's capacity must agree
// after every step: equal capacities mean the FIFO allocates exactly when
// and as much as the copy-down slice did.
func TestMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		var q FIFO[int]
		var ref refQueue
		next := 0
		for step := 0; step < 2000; step++ {
			pushBias := 0.3 + 0.4*float64((step/250)%2) // alternate drain- and fill-heavy phases
			if ref.len() == 0 || r.Float64() < pushBias {
				q.Push(next)
				ref.push(next)
				next++
			} else if got, want := q.Pop(), ref.pop(); got != want {
				t.Fatalf("run %d step %d: popped %d, want %d", run, step, got, want)
			}
			if q.Len() != ref.len() {
				t.Fatalf("run %d step %d: Len %d, want %d", run, step, q.Len(), ref.len())
			}
			if cap(q.buf) != cap(ref) {
				t.Fatalf("run %d step %d: capacity %d, want the copy-down slice's %d", run, step, cap(q.buf), cap(ref))
			}
		}
	}
}

// TestNoGrowthBelowCapacity fills and drains a FIFO 1,000 times, each time
// to a random depth and leaving a random remainder, so the head is rarely
// at the front. A push made while the live count is below the capacity
// must never replace the backing array.
func TestNoGrowthBelowCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var q FIFO[int]
	for i := 0; i < 64; i++ { // grow to a fixed capacity first
		q.Push(i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	capacity := cap(q.buf)
	next, want := 0, 0
	for cycle := 0; cycle < 1000; cycle++ {
		for n := r.Intn(capacity - q.Len() + 1); n > 0; n-- {
			q.Push(next)
			next++
			if cap(q.buf) != capacity {
				t.Fatalf("cycle %d: capacity %d after a push at %d live, want %d", cycle, cap(q.buf), q.Len()-1, capacity)
			}
		}
		for n := r.Intn(q.Len() + 1); n > 0; n-- {
			if got := q.Pop(); got != want {
				t.Fatalf("cycle %d: popped %d, want %d", cycle, got, want)
			}
			want++
		}
	}
}

// TestPopEmptyPanics: popping an empty queue is a caller's bug.
func TestPopEmptyPanics(t *testing.T) {
	var q FIFO[int]
	q.Push(1)
	q.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty FIFO did not panic")
		}
	}()
	q.Pop()
}
