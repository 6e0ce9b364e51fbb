// Package fifo provides the first-in, first-out queue behind the
// hypervisor's and the guest's interrupt backlogs. It sits under hv, the
// lower of its two users, so the benchmark's per-layer profile split,
// which charges a sample to its innermost internal/<layer> frame, counts
// its time in the hv layer.
package fifo

// FIFO is a queue kept in a slice plus a head index. Pop advances the head
// in O(1). Push moves the live elements down to the front of the array only
// when it finds the array full, so the array grows exactly when the live
// count reaches its capacity: as a plain slice grows under append with a
// copy-down pop, but without that pop's O(n) copy per element.
//
// The zero FIFO is an empty queue ready to use.
type FIFO[T any] struct {
	buf  []T // buf[head:] are the live elements, oldest first
	head int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends x at the tail.
func (q *FIFO[T]) Push(x T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, x)
}

// Pop removes and returns the head element. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return x
}
