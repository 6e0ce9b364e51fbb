package trace

import (
	"testing"
	"testing/quick"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

func TestEmitAndRecords(t *testing.T) {
	b := NewBuffer(10)
	for i := 0; i < 5; i++ {
		b.Emit(Record{Time: simtime.Time(i), Kind: KindYield, Dom: 1, VCPU: int16(i)})
	}
	recs := b.Records()
	if len(recs) != 5 {
		t.Fatalf("len=%d", len(recs))
	}
	for i, r := range recs {
		if r.VCPU != int16(i) {
			t.Fatalf("record %d out of order: %v", i, r)
		}
	}
	if b.ring.Len() != 5 {
		t.Fatalf("Len=%d", b.ring.Len())
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Emit(Record{Kind: KindSchedule, VCPU: int16(i)})
	}
	recs := b.Records()
	if len(recs) != 4 {
		t.Fatalf("len=%d", len(recs))
	}
	for i, r := range recs {
		if r.VCPU != int16(6+i) {
			t.Fatalf("wrap order wrong: got vcpu %d at %d", r.VCPU, i)
		}
	}
	if b.Count(KindSchedule) != 10 {
		t.Fatalf("count survives wrap: %d", b.Count(KindSchedule))
	}
}

func TestZeroCapacityBufferCountsOnly(t *testing.T) {
	b := NewBuffer(0)
	b.Emit(Record{Kind: KindYield})
	if b.Count(KindYield) != 1 || b.ring.Len() != 0 {
		t.Fatalf("count=%d len=%d", b.Count(KindYield), b.ring.Len())
	}
}

// Tally must count exactly what Emit counts on a ring that retains
// nothing, ring total included.
func TestTallyMatchesEmitWhenNothingRetained(t *testing.T) {
	emitted, tallied := NewBuffer(0), NewBuffer(0)
	if emitted.Retains() || !NewBuffer(1).Retains() {
		t.Fatal("Retains must be true exactly when capacity > 0")
	}
	for i, k := range []Kind{KindYield, KindSchedule, KindYield, kindCount, KindRepair} {
		emitted.Emit(Record{Time: simtime.Time(i), Kind: k})
		tallied.Tally(k)
	}
	for k := Kind(0); k <= kindCount; k++ {
		if emitted.Count(k) != tallied.Count(k) {
			t.Fatalf("%v: emit counted %d, tally %d", k, emitted.Count(k), tallied.Count(k))
		}
	}
	if emitted.ring.Total() != tallied.ring.Total() || tallied.ring.Len() != 0 {
		t.Fatalf("total emit=%d tally=%d, len=%d", emitted.ring.Total(), tallied.ring.Total(), tallied.ring.Len())
	}
}

func TestKindString(t *testing.T) {
	if KindYield.String() != "yield" {
		t.Fatalf("got %q", KindYield.String())
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatalf("got %q", Kind(200).String())
	}
}

// Every declared kind below kindCount must have a non-empty name, so no two
// kinds ever share the generic kind(N) fallback in traces, flight dumps or
// timeline exports.
func TestKindNamesComplete(t *testing.T) {
	if len(kindNames) != int(kindCount) {
		t.Fatalf("kindNames has %d entries, want %d (kindCount)", len(kindNames), kindCount)
	}
	seen := make(map[string]Kind, kindCount)
	for k := Kind(0); k < kindCount; k++ {
		name := kindNames[k]
		if name == "" {
			t.Errorf("kind %d has no kindNames entry", k)
			continue
		}
		if k.String() != name {
			t.Errorf("Kind(%d).String()=%q, want %q", k, k.String(), name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Time: 1500, Kind: KindMigrate, Dom: 2, VCPU: 3, PCPU: 4, Arg0: 0xff}
	s := r.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// Property: after N emits into a ring of capacity C, Records() returns the
// last min(N, C) records in emit order.
func TestPropertyRingSemantics(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n, c := int(nRaw%200), int(cRaw%20)+1
		b := NewBuffer(c)
		for i := 0; i < n; i++ {
			b.Emit(Record{Kind: KindSchedule, Arg0: uint64(i)})
		}
		recs := b.Records()
		want := n
		if want > c {
			want = c
		}
		if len(recs) != want {
			return false
		}
		for i, r := range recs {
			if r.Arg0 != uint64(n-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
