package simtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// An Event must stay in the 64-byte allocation size class: every queued
// At/After event and every holder that embeds an owned one pays for it.
func TestEventSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 64 {
		t.Fatalf("Event is %d bytes, past the 64-byte size class", n)
	}
}

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	if c.Pending() != 0 {
		t.Fatalf("new clock has %d pending events", c.Pending())
	}
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	c := NewClock()
	var got []Time
	for _, d := range []Duration{50, 10, 30, 20, 40} {
		d := d
		c.After(d, func() { got = append(got, c.Now()) })
	}
	c.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTiesFireInSchedulingOrder(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(100, func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v, want ascending scheduling order", order)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := NewClock()
	fired := false
	ev := c.After(10, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending after scheduling")
	}
	if !ev.Cancel() {
		t.Fatal("Cancel of a pending event should return true")
	}
	if ev.Pending() {
		t.Fatal("event still pending after Cancel")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel should return false")
	}
	c.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelOneOfManyKeepsOthers(t *testing.T) {
	c := NewClock()
	var got []int
	evs := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = c.After(Duration(10*(i+1)), func() { got = append(got, i) })
	}
	evs[2].Cancel()
	c.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	c := NewClock()
	ev := c.After(1, func() {})
	c.Run()
	if ev.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	c := NewClock()
	var fired []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		c.After(d, func() { fired = append(fired, c.Now()) })
	}
	n := c.RunUntil(25)
	if n != 2 {
		t.Fatalf("RunUntil executed %d events, want 2", n)
	}
	if c.Now() != 25 {
		t.Fatalf("clock at %v after RunUntil(25), want 25", c.Now())
	}
	if c.Pending() != 2 {
		t.Fatalf("%d events pending, want 2", c.Pending())
	}
	// Events scheduled exactly at the boundary run.
	c.After(0, func() { fired = append(fired, c.Now()) })
	c.RunUntil(25)
	if len(fired) != 3 {
		t.Fatalf("boundary event did not run: fired=%v", fired)
	}
}

// RunUntil leaves the clock at its target even when a callback stopped the
// loop early; the events left behind stay queued at their own times.
func TestRunUntilAfterStopAdvancesToTarget(t *testing.T) {
	c := NewClock()
	c.At(10, c.Stop)
	c.At(20, func() { t.Error("event ran after Stop") })
	c.At(30, func() { t.Error("event ran after Stop") })
	if n := c.RunUntil(25); n != 1 {
		t.Fatalf("RunUntil executed %d events, want 1", n)
	}
	if c.Now() != 25 || c.Pending() != 2 || c.NextEventTime() != 20 {
		t.Fatalf("after Stop: now=%v pending=%d next=%v, want 25, 2, 20",
			c.Now(), c.Pending(), c.NextEventTime())
	}
	if n := c.RunUntil(40); n != 0 || c.Now() != 40 || c.Pending() != 2 {
		t.Fatalf("stopped RunUntil(40): ran %d, now=%v, pending=%d; want 0, 40, 2", n, c.Now(), c.Pending())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	c := NewClock()
	var seq []Time
	c.After(10, func() {
		seq = append(seq, c.Now())
		c.After(5, func() { seq = append(seq, c.Now()) })
	})
	c.Run()
	if len(seq) != 2 || seq[0] != 10 || seq[1] != 15 {
		t.Fatalf("nested scheduling gave %v, want [10 15]", seq)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := NewClock()
	c.After(100, func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.At(50, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	c.At(1, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	c := NewClock()
	c.After(10, func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	c.After(-5, func() {})
}

func TestNegativeAfterLabeledPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("negative AfterLabeled did not panic")
		}
	}()
	c.AfterLabeled(-1, "bad", func() {})
}

func TestZeroAfterFiresAtNow(t *testing.T) {
	c := NewClock()
	c.After(10, func() {})
	c.Run()
	fireAt := Time(-1)
	c.After(0, func() { fireAt = c.Now() })
	c.Run()
	if fireAt != 10 {
		t.Fatalf("zero-duration After fired at %v, want now (10)", fireAt)
	}
}

// Fired and cancelled events are recycled; stale handles must stay inert and
// reuse must not leak state (label, callback) between generations.
func TestEventRecycling(t *testing.T) {
	c := NewClock()
	ev1 := c.AfterLabeled(1, "first", func() {})
	c.Run()
	if ev1.Pending() {
		t.Fatal("fired event still pending")
	}
	if ev1.Cancel() {
		t.Fatal("Cancel of a recycled event returned true")
	}
	// The next schedule reuses the same Event object but must behave fresh.
	fired := false
	ev2 := c.After(5, func() { fired = true })
	if ev2 != ev1 {
		t.Fatal("expected the free list to recycle the fired event")
	}
	if !ev2.Pending() {
		t.Fatal("recycled event not pending after reschedule")
	}
	// A stale Cancel through the old handle aliases the new event by design;
	// the lifetime rule says holders must have dropped ev1 by now. What must
	// hold is that cancelling and rescheduling keeps the queue consistent.
	if !ev2.Cancel() {
		t.Fatal("Cancel of rescheduled event returned false")
	}
	c.Run()
	if fired {
		t.Fatal("cancelled recycled event fired")
	}
	if c.Pending() != 0 {
		t.Fatalf("%d events pending, want 0", c.Pending())
	}
}

// A Cancel during another event's callback must not corrupt the heap, and a
// stale Cancel of the currently firing event must be a no-op (the firing
// event is recycled only after its callback returns).
func TestCancelDuringCallback(t *testing.T) {
	c := NewClock()
	var later *Event
	var firing *Event
	otherFired := false
	firing = c.After(1, func() {
		later.Cancel()
		if firing.Cancel() {
			t.Error("Cancel of the event being fired returned true")
		}
	})
	later = c.After(2, func() { otherFired = true })
	c.After(3, func() {})
	c.Run()
	if otherFired {
		t.Fatal("event cancelled from a callback still fired")
	}
}

func TestStopHaltsExecution(t *testing.T) {
	c := NewClock()
	n := 0
	for i := 1; i <= 10; i++ {
		c.After(Duration(i), func() {
			n++
			if n == 3 {
				c.Stop()
			}
		})
	}
	c.Run()
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
	if !c.stopped {
		t.Fatal("stopped false after Stop")
	}
	if c.Pending() != 7 {
		t.Fatalf("%d pending after Stop, want 7", c.Pending())
	}
}

func TestNextEventTime(t *testing.T) {
	c := NewClock()
	if c.NextEventTime() != Infinity {
		t.Fatal("empty queue should report Infinity")
	}
	c.After(42, func() {})
	if c.NextEventTime() != 42 {
		t.Fatalf("NextEventTime=%v, want 42", c.NextEventTime())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{Infinity, "inf"},
	}
	for _, tc := range cases {
		if got := tc.t.String(); got != tc.want {
			t.Errorf("Time(%d).String()=%q, want %q", int64(tc.t), got, tc.want)
		}
	}
}

// TestTimeStringMatchesFmt checks String against the fmt verbs it replaces
// at every unit boundary, its neighbours and 10k random times per unit.
func TestTimeStringMatchesFmt(t *testing.T) {
	ref := func(t Time) string {
		switch {
		case t == Infinity:
			return "inf"
		case t >= Second:
			return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
		case t >= Millisecond:
			return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
		case t >= Microsecond:
			return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
		default:
			return fmt.Sprintf("%dns", int64(t))
		}
	}
	times := []Time{Infinity, Infinity - 1, 0, -1, -Second}
	for _, u := range []Time{Microsecond, Millisecond, Second} {
		times = append(times, u-1, u, u+1, 999*u+999, 1000*u-1)
	}
	x := uint64(1)
	for _, span := range []uint64{1000, 1e6, 1e9, 1e12, 1 << 62} {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			times = append(times, Time(x>>1%span))
		}
	}
	for _, tm := range times {
		if got, want := tm.String(), ref(tm); got != want {
			t.Fatalf("Time(%d).String() = %q, fmt gives %q", int64(tm), got, want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tm := 1500 * Microsecond
	if tm.Millis() != 1.5 {
		t.Errorf("Millis=%v", tm.Millis())
	}
	if tm.Seconds() != 0.0015 {
		t.Errorf("Seconds=%v", tm.Seconds())
	}
}

// Property: for any set of delays, events fire in sorted order and the clock
// never moves backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		c := NewClock()
		var fired []Time
		last := Time(-1)
		monotonic := true
		for _, d := range delays {
			c.After(Duration(d), func() {
				if c.Now() < last {
					monotonic = false
				}
				last = c.Now()
				fired = append(fired, c.Now())
			})
		}
		c.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return monotonic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the others to fire.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask uint64) bool {
		c := NewClock()
		fired := make(map[int]bool)
		evs := make([]*Event, len(delays))
		for i, d := range delays {
			i := i
			evs[i] = c.After(Duration(d), func() { fired[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range evs {
			if mask&(1<<(uint(i)%64)) != 0 && i%2 == 0 {
				evs[i].Cancel()
				cancelled[i] = true
			}
		}
		c.Run()
		for i := range evs {
			if cancelled[i] == fired[i] {
				return false // cancelled must not fire; non-cancelled must fire
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFiredCounter(t *testing.T) {
	c := NewClock()
	for i := 0; i < 17; i++ {
		c.After(Duration(i), func() {})
	}
	c.Run()
	if c.Fired() != 17 {
		t.Fatalf("Fired=%d, want 17", c.Fired())
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	c := NewClock()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.After(Duration(r.Intn(1000)), func() {})
		c.Step()
	}
}

// BenchmarkClockScheduleFire is the regression check for the allocation-free
// steady state: a warm clock with a standing population of pending events
// must schedule and fire without allocating (free list + monomorphic heap).
func BenchmarkClockScheduleFire(b *testing.B) {
	c := NewClock()
	r := rand.New(rand.NewSource(1))
	fn := func() {}
	// Warm a standing queue so heap operations exercise real depth, and warm
	// the free list past its growth phase.
	const standing = 256
	for i := 0; i < standing; i++ {
		c.After(Duration(r.Intn(1000)+1), fn)
	}
	for i := 0; i < standing; i++ {
		c.After(Duration(r.Intn(1000)+1), fn)
		c.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(Duration(r.Intn(1000)+1), fn)
		c.Step()
	}
}

func BenchmarkClockScheduleCancel(b *testing.B) {
	c := NewClock()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := c.After(Duration(i%1000+1), fn)
		ev.Cancel()
	}
}
