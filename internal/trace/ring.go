package trace

// Ring is a bounded ring of run events. Push appends until the bound, then
// overwrites the oldest entry; Total counts every push, ring wrap
// included. A ring made by NewRing grows its storage by append up to the
// bound, so a ring that never fills never pays for the bound.
type Ring[T any] struct {
	buf   []T
	bound int
	next  int // once full, the index of the oldest entry
	total uint64
}

// NewRing returns a ring retaining the newest bound entries (bound <= 0
// retains none but still counts).
func NewRing[T any](bound int) Ring[T] { return Ring[T]{bound: bound} }

// Push records v, overwriting the oldest entry once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.total++
	switch {
	case len(r.buf) < r.bound:
		r.buf = append(r.buf, v)
	case r.bound > 0:
		r.buf[r.next] = v
		if r.next++; r.next == r.bound {
			r.next = 0
		}
	}
}

// Len returns the number of entries currently held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns the exact number of entries ever pushed.
func (r *Ring[T]) Total() uint64 { return r.total }

// All returns a copy of the held entries, oldest first (never nil).
func (r *Ring[T]) All() []T { return r.Tail(len(r.buf)) }

// Tail returns a copy of the newest min(n, Len) entries, oldest first
// (never nil), without copying the rest of the ring.
func (r *Ring[T]) Tail(n int) []T {
	n = max(0, min(n, len(r.buf)))
	out := make([]T, n)
	end := r.next // the newest entry sits just below the oldest ...
	if end == 0 {
		end = len(r.buf) // ... or at the top, before the first wrap
	}
	if start := end - n; start >= 0 {
		copy(out, r.buf[start:end])
	} else {
		k := copy(out, r.buf[len(r.buf)+start:])
		copy(out[k:], r.buf[:end])
	}
	return out
}
