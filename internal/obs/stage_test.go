package obs

import (
	"math"
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestStageAttributionAndConservation drives one ipi_deliver span through
// explicit stage marks and checks both the per-stage attribution and the
// conservation law: Σ stage durations == span duration, exactly.
func TestStageAttributionAndConservation(t *testing.T) {
	o := New(Config{})
	s := o.Begin(SpanIPIDeliver, 0, 1, 42, 100*us)
	o.Stage(s, IPIStageSend, 103*us)   // 3us on the wire
	o.Stage(s, IPIStageInject, 110*us) // 7us injecting
	o.End(s, 150*us)                   // 40us remainder -> pending (final stage)

	total, stages := o.SpanLedger(SpanIPIDeliver)
	if total != int64(50*us) {
		t.Fatalf("span total = %d, want 50us", total)
	}
	want := []int64{int64(3 * us), 0, int64(7 * us), int64(40 * us)}
	var sum int64
	for i, w := range want {
		if stages[i] != w {
			t.Errorf("stage %s = %d, want %d", StageNames(SpanIPIDeliver)[i], stages[i], w)
		}
		sum += stages[i]
	}
	if sum != total {
		t.Errorf("Σ stages = %d != span total %d", sum, total)
	}
	if h := o.stageHists[SpanIPIDeliver][IPIStageSend]; h.Count() != 1 || h.Max() != int64(3*us) {
		t.Errorf("send stage hist count=%d max=%d, want 1 and 3us", h.Count(), h.Max())
	}
	if h := o.stageHists[SpanIPIDeliver][IPIStageRetry]; h.Count() != 0 {
		t.Errorf("retry stage hist count=%d, want 0 (stage never hit)", h.Count())
	}

	sum2 := o.Summary(simtime.Second)
	sp := sum2.Span("ipi_deliver")
	if sp == nil || len(sp.Stages) != 4 {
		t.Fatalf("ipi_deliver stat = %+v, want 4 stages", sp)
	}
	var pct float64
	for _, st := range sp.Stages {
		pct += st.Share
	}
	if math.Abs(pct-100.0) > 1e-9 {
		t.Errorf("stage shares sum to %v, want 100.0", pct)
	}
	if sp.Blame != "pending" || sp.BlamePct != 80.0 {
		t.Errorf("blame = %s %.1f%%, want pending 80.0%%", sp.Blame, sp.BlamePct)
	}
}

// TestStageNoOps: the stage recorder must ignore the zero ref, closed refs
// and out-of-range stage indices rather than corrupting the ledger.
func TestStageNoOps(t *testing.T) {
	o := New(Config{})
	o.Stage(0, DiskStageQueue, 10*us) // zero ref

	s := o.Begin(SpanDiskIO, 0, -1, 512, 0)
	o.Stage(s, 99, 5*us) // out of range for disk_io
	o.Stage(s, -1, 5*us)
	o.End(s, 8*us)
	o.Stage(s, DiskStageQueue, 20*us) // closed ref

	total, stages := o.SpanLedger(SpanDiskIO)
	if total != int64(8*us) || stages[DiskStageQueue] != 0 || stages[DiskStageService] != int64(8*us) {
		t.Errorf("ledger total=%d stages=%v, want 8us all in service", total, stages)
	}
}

// TestSummaryOpenSpanAttribution is the regression test for the open-span
// read-out: a deliberately unclosed disk_io span must be attributed to its
// kind, not just counted in the aggregate.
func TestSummaryOpenSpanAttribution(t *testing.T) {
	o := New(Config{})
	s := o.Begin(SpanDiskIO, 0, -1, 512, 0)
	o.End(s, 2*us)
	leak := o.Begin(SpanDiskIO, 0, -1, 4096, 5*us) // never closed

	sum := o.Summary(100 * us)
	if sum.OpenSpans != 1 {
		t.Fatalf("OpenSpans = %d, want 1", sum.OpenSpans)
	}
	for _, sp := range sum.Spans {
		want := 0
		if sp.Kind == "disk_io" {
			want = 1
		}
		if sp.Open != want {
			t.Errorf("%s Open = %d, want %d", sp.Kind, sp.Open, want)
		}
	}
	byKind := o.OpenSpansByKind()
	open := 0
	for _, n := range byKind {
		open += n
	}
	if open != o.OpenSpanCount() || byKind[SpanDiskIO] != 1 {
		t.Errorf("OpenSpansByKind = %v (Σ=%d), want disk_io=1 matching OpenSpanCount=%d",
			byKind, open, o.OpenSpanCount())
	}

	// Closing the leak drains the per-kind attribution too.
	o.End(leak, 50*us)
	if sp := o.Summary(100 * us).Span("disk_io"); sp.Open != 0 {
		t.Errorf("disk_io Open = %d after close, want 0", sp.Open)
	}
}

// stageCycle is the canonical Begin → Stage → Stage → End sequence used by
// both the allocation proof and BenchmarkStageRecord.
func stageCycle(o *Observer, now simtime.Time) {
	s := o.Begin(SpanIPIDeliver, 0, 0, 0, now)
	o.Stage(s, IPIStageSend, now+us)
	o.Stage(s, IPIStageInject, now+2*us)
	o.End(s, now+3*us)
}

// TestStageRecordAllocFree proves stage recording adds zero allocations at
// steady state (after the span free list and stage histograms exist).
func TestStageRecordAllocFree(t *testing.T) {
	o := New(Config{})
	stageCycle(o, 0) // warm the free list and histogram buckets
	now := simtime.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 3 * us
		stageCycle(o, now)
	})
	if allocs != 0 {
		t.Errorf("stage record cycle allocates %v per op, want 0", allocs)
	}
}

// BenchmarkStageRecord measures the full attribution cycle: one span opened,
// two explicit stage marks, one close (which credits the final stage and
// feeds three histograms). Must report 0 allocs/op.
func BenchmarkStageRecord(b *testing.B) {
	o := New(Config{})
	stageCycle(o, 0)
	b.ReportAllocs()
	b.ResetTimer()
	now := simtime.Time(0)
	for i := 0; i < b.N; i++ {
		now += 3 * us
		stageCycle(o, now)
	}
}

// TestSharesPct pins the largest-remainder contract: shares are tenths of a
// percent and always sum to exactly 100.0 for any nonzero budget.
func TestSharesPct(t *testing.T) {
	cases := [][]int64{
		{1, 1, 1},    // 33.3/33.3/33.3 + leftover tenth
		{997, 2, 1},  // tiny stages must not round to a 99.9 total
		{1, 0, 0, 0}, // single stage takes all
		{7, 11, 13, 100003},
	}
	for _, totals := range cases {
		shares := sharesPct(totals)
		// Sum in integer tenths so float representation error cannot hide a
		// lost or double-counted tenth.
		var tenths int64
		for _, s := range shares {
			tenths += int64(math.Round(s * 10))
		}
		if tenths != 1000 {
			t.Errorf("sharesPct(%v) = %v sums to %d tenths, want exactly 1000", totals, shares, tenths)
		}
	}
	for _, s := range sharesPct([]int64{0, 0}) {
		if s != 0 {
			t.Errorf("all-zero budget produced share %v, want 0", s)
		}
	}
}
