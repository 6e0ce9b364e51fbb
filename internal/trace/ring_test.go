package trace

import (
	"fmt"
	"slices"
	"testing"
)

// naiveRing is the reference model: append everything, keep the last n.
type naiveRing struct {
	all []int
	n   int
}

func (r *naiveRing) push(v int) { r.all = append(r.all, v) }

func (r *naiveRing) tail(k int) []int {
	k = max(0, min(k, r.n, len(r.all)))
	return r.all[len(r.all)-k:]
}

// TestRingMatchesNaive drives Ring — both the append-grown NewRing and the
// preallocated trace Buffer — through push counts around every wrap
// boundary and compares All, Total, Len and every Tail against the naive
// model.
func TestRingMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, pushes := range []int{0, n - 1, n, n + 1, 3*n + 2} {
			name := fmt.Sprintf("bound%d/push%d", n, pushes)
			ring := NewRing[int](n)
			buf := NewBuffer(n)
			ref := naiveRing{n: n}
			for i := 0; i < pushes; i++ {
				ring.Push(i)
				buf.Emit(Record{Kind: KindWake, Arg0: uint64(i)})
				ref.push(i)
			}
			args := func(recs []Record) []int {
				out := make([]int, len(recs))
				for i, r := range recs {
					out[i] = int(r.Arg0)
				}
				return out
			}
			want := ref.tail(n)
			if got := ring.All(); got == nil || !slices.Equal(got, want) {
				t.Errorf("%s: All() = %v, want %v", name, got, want)
			}
			if got := args(buf.Records()); !slices.Equal(got, want) {
				t.Errorf("%s: Buffer.Records() = %v, want %v", name, got, want)
			}
			if ring.Total() != uint64(pushes) || buf.Count(KindWake) != uint64(pushes) {
				t.Errorf("%s: Total() = %d, Count = %d, want %d", name, ring.Total(), buf.Count(KindWake), pushes)
			}
			if ring.Len() != len(want) || buf.ring.Len() != len(want) {
				t.Errorf("%s: Len() = %d/%d, want %d", name, ring.Len(), buf.ring.Len(), len(want))
			}
			for k := 0; k <= n+1; k++ {
				want := ref.tail(k)
				if got := ring.Tail(k); got == nil || !slices.Equal(got, want) {
					t.Errorf("%s: Tail(%d) = %v, want %v", name, k, got, want)
				}
				if got := args(buf.Tail(k)); !slices.Equal(got, want) {
					t.Errorf("%s: Buffer.Tail(%d) = %v, want %v", name, k, got, want)
				}
			}
		}
	}
}

// TestRingCopiesOut: the slices All and Tail return are the caller's; later
// pushes must not show through them.
func TestRingCopiesOut(t *testing.T) {
	r := NewRing[int](2)
	r.Push(1)
	r.Push(2)
	all, tail := r.All(), r.Tail(1)
	r.Push(3)
	if !slices.Equal(all, []int{1, 2}) || !slices.Equal(tail, []int{2}) {
		t.Fatalf("All=%v Tail(1)=%v after a later push, want [1 2] and [2]", all, tail)
	}
}

// TestEventEnumNames: every decision reason and repair kind has its own
// name, and MarshalText emits exactly that name.
func TestEventEnumNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string, text []byte) {
		t.Helper()
		if name == "" || seen[name] || string(text) != name {
			t.Errorf("name %q (text %q) empty, duplicated or not marshalled by name", name, text)
		}
		seen[name] = true
	}
	for r := DecisionIdle; r <= DecisionCapacityClamp; r++ {
		text, _ := r.MarshalText()
		check(r.String(), text)
	}
	for k := RepairKind(0); k < NumRepairKinds; k++ {
		text, _ := k.MarshalText()
		check(k.String(), text)
	}
	if DecisionReason(99).String() != "reason(99)" || RepairKind(99).String() != "kind(99)" {
		t.Errorf("out-of-range names: %q, %q", DecisionReason(99), RepairKind(99))
	}
}
