// Package simtime provides the discrete-event simulation core: a virtual
// nanosecond clock and a cancellable event queue.
//
// The simulation is single-threaded by design. All state transitions in the
// simulated machine happen inside event callbacks executed in strict
// timestamp order (ties broken by scheduling order), which makes every run
// bit-for-bit reproducible for a given seed. This is the substitution for
// running on real hardware: latencies are exact virtual-time quantities
// instead of noisy wall-clock measurements.
//
// # Performance
//
// The queue has two tiers split at a moving horizon. The near tier is a
// slice of *Event sorted by (when, seq), latest first, holding every event
// with when < horizon: popping the earliest takes the last element, with no
// compares; inserting shifts the events that fire before the new one up one
// slot, and cancelling shifts the earlier-firing events down over the hole.
// The far tier is an unordered slice holding every event with
// when >= horizon: inserting appends, and cancelling moves the last far
// event into the vacated slot, both O(1). When the near tier drains, the
// clock sets horizon = min(far.when) + farWindow (saturating at Infinity)
// and moves the far events below the new horizon into the near tier. Every
// near event thus precedes every far event in (when, seq) order and the
// near tier is empty only when the whole queue is, so its last element is
// always the global minimum: firing order and sequence numbers are exactly
// those of a single priority queue.
//
// The split exists for the credit scheduler's yield storm: every dispatch
// arms a 30 ms slice timer that a yield cancels microseconds later. On the
// dedup co-run, a third of all schedules and 78% of all cancels are such
// timers and only 0.09% of them fire, while guest progress events land
// 10-100 us ahead. A 1 ms window keeps those near events in the near tier
// and the slices and 10 ms ticks out of it, at about 1,000 refills per
// simulated second. In prototypes, a 100 us or 300 us window measured the
// same and a 10 ms window was slower.
//
// The near tier is sorted rather than a heap because it is small: for
// about ten events a linear insertion beats a heap (Jones, CACM 1986). A
// 4-ary heap spent most of its time in the data-dependent child-compare
// loop of its sift-down, and storing the keys inline did not help. The
// shift cost grows with the host; on the dedup+swaptions co-run with
// n-vCPU VMs (DESIGN.md §8 has the runs):
//
//	pCPUs  near events at a pop  shifts per insert  shifts per cancel
//	   12                  10.9                5.3                9.1
//	   32                  29.1               17.0               30.0
//	   64                  64.4               38.5               58.5
//
// On the benchmark's 12-pCPU co-runs the sorted tier cut host time per
// simulated second by about 10%; at hv.MaxPCPUs (64 pCPUs) it measures the
// same as the heap within noise. FIFO lanes for constant-delay events
// measured slower than the heap (ROADMAP.md, item 2).
//
// Event.index encodes where an event lives: a near-tier position (>= 0),
// inFar-i for slot i of the far tier, or notQueued. The far tier needs no
// link fields, so an Event stays in the 64-byte size class.
//
// The clock keeps a free list of fired and cancelled events, so
// steady-state schedule/fire/cancel cycles allocate nothing. The price of
// the recycling is a handle-lifetime rule: an *Event returned by At/After
// is valid only until the event fires or is cancelled. Holders that keep an
// event in a field must clear that field when the callback runs (every
// holder in this repository nils its field at the top of the callback) and
// must never Cancel through a reference to an event that already fired.
package simtime

import (
	"fmt"
	"strconv"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration constants but in virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Infinity is a time later than any event the simulator will ever schedule.
const Infinity Time = 1<<63 - 1

// String formats a Time with an adaptive unit for debugging and reports.
func (t Time) String() string {
	switch {
	case t == Infinity:
		return "inf"
	case t >= Second:
		return strconv.FormatFloat(float64(t)/float64(Second), 'f', 6, 64) + "s"
	case t >= Millisecond:
		return strconv.FormatFloat(float64(t)/float64(Millisecond), 'f', 3, 64) + "ms"
	case t >= Microsecond:
		return strconv.FormatFloat(float64(t)/float64(Microsecond), 'f', 3, 64) + "us"
	default:
		return strconv.FormatInt(int64(t), 10) + "ns"
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Event is a scheduled callback. Events are created through Clock.At or
// Clock.After and may be cancelled until they fire.
//
// The handle is valid only while the event is queued: once the event fires
// or is cancelled the clock recycles the Event for a future At/After, so a
// retained pointer must be dropped at that point (see the package comment).
type Event struct {
	when  Time
	seq   uint64
	index int // near-tier position (>= 0), notQueued, or inFar - far-tier slot
	fn    func()
	label string
	clock *Clock // owning clock, fixed when the Event is allocated
}

// Event.index below zero: notQueued, or inFar-i for the event in far[i].
const (
	notQueued = -1
	inFar     = -2
)

// initialTierCap presizes both tiers for the 12-pCPU co-runs, whose peaks
// are 46 near and 38 far events, so neither grows by append.
const initialTierCap = 64

// farWindow is the width of the near tier: a refill moves the far events
// within farWindow of the earliest one into the near tier (see the package
// comment for the measured traffic behind 1 ms).
const farWindow = Millisecond

// When returns the virtual time at which the event fires (or fired).
func (e *Event) When() Time { return e.when }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && e.index != notQueued }

// Cancel removes the event from the queue. Cancelling a fired or already
// cancelled event is a no-op. Cancel returns true if the event was pending.
func (e *Event) Cancel() bool {
	if e == nil || e.index == notQueued {
		return false
	}
	c := e.clock
	if e.index <= inFar {
		c.removeFar(e)
	} else {
		c.near.remove(e.index)
		if len(c.near) == 0 && len(c.far) > 0 {
			c.refill()
		}
	}
	c.recycle(e)
	return true
}

// WatchdogInfo is the diagnostic snapshot handed to a livelock watchdog.
type WatchdogInfo struct {
	// Now is the virtual time the event loop is stuck at.
	Now Time
	// SameTimeEvents counts consecutive events executed without the
	// virtual clock advancing.
	SameTimeEvents uint64
	// RecentLabels holds the labels of the most recent events, oldest
	// first (unlabeled events appear as ""), for post-mortem diagnosis.
	RecentLabels []string
}

// wdRingSize is the number of recent event labels kept for watchdog
// diagnostics.
const wdRingSize = 16

// Clock owns virtual time and the pending-event queue.
type Clock struct {
	now     Time
	near    eventHeap // events with when < horizon
	far     []*Event  // events with when >= horizon, unordered
	horizon Time
	seq     uint64
	fired   uint64
	stopped bool
	free    []*Event // recycled Event objects (see package comment)
	firing  *Event   // event whose callback is executing (Reschedule target)

	// jitter, when set, perturbs the delay of every After/AfterLabeled
	// call (fault injection: timer-tick jitter). The returned delay is
	// clamped to >= 0. At-scheduling is never jittered: absolute times
	// express causal deadlines, not timer programming.
	jitter func(label string, d Duration) Duration

	// Watchdog state: when wdLimit > 0, Step counts consecutive events
	// executed at an unchanged virtual time and fires wdFn once the count
	// reaches the limit (event-loop livelock: work without progress).
	wdLimit uint64
	wdCount uint64
	wdLast  Time
	wdFn    func(WatchdogInfo)
	wdRing  [wdRingSize]string
	wdNext  int
	wdFired bool
}

// SetDelayJitter installs (or, with nil, removes) a delay perturbation
// applied to every After/AfterLabeled call. The function receives the
// event's label and nominal delay and returns the delay to use; results
// below zero are clamped to zero. Deterministic fault plans use this to
// model timer-tick jitter without touching callers.
func (c *Clock) SetDelayJitter(fn func(label string, d Duration) Duration) {
	c.jitter = fn
}

// SetWatchdog arms a livelock watchdog: if limit consecutive events execute
// without the virtual clock advancing, fn is invoked once with diagnostics
// (fn typically calls Stop and records the info). limit 0 disarms. The
// watchdog only observes the event loop; it never schedules events, so
// arming it cannot perturb a run's results.
func (c *Clock) SetWatchdog(limit uint64, fn func(WatchdogInfo)) {
	c.wdLimit = limit
	c.wdFn = fn
	c.wdCount = 0
	c.wdFired = false
}

// recentLabels returns the watchdog label ring, oldest first.
func (c *Clock) recentLabels() []string {
	out := make([]string, 0, wdRingSize)
	for i := 0; i < wdRingSize; i++ {
		out = append(out, c.wdRing[(c.wdNext+i)%wdRingSize])
	}
	return out
}

// NewClock returns a clock at time zero with an empty queue.
func NewClock() *Clock {
	return &Clock{
		near: make(eventHeap, 0, initialTierCap),
		far:  make([]*Event, 0, initialTierCap),
	}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Fired returns the number of events executed so far (for diagnostics).
func (c *Clock) Fired() uint64 { return c.fired }

// Pending returns the number of queued events.
func (c *Clock) Pending() int { return len(c.near) + len(c.far) }

// alloc returns a fresh or recycled Event.
func (c *Clock) alloc() *Event {
	if n := len(c.free); n > 0 {
		ev := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return ev
	}
	return &Event{clock: c}
}

// recycle clears a fired/cancelled event and returns it to the free list.
func (c *Clock) recycle(ev *Event) {
	ev.fn = nil
	ev.label = ""
	ev.index = notQueued
	c.free = append(c.free, ev)
}

// At schedules fn to run at time t. Scheduling in the past panics: that is
// always a simulator bug, and silently clamping would corrupt causality.
func (c *Clock) At(t Time, fn func()) *Event {
	return c.AtLabeled(t, "", fn)
}

// AtLabeled is At with a debug label attached to the event.
func (c *Clock) AtLabeled(t Time, label string, fn func()) *Event {
	if t < c.now {
		panic(fmt.Sprintf("simtime: scheduling event %q at %v before now %v", label, t, c.now))
	}
	if fn == nil {
		panic("simtime: nil event callback")
	}
	c.seq++
	ev := c.alloc()
	ev.when = t
	ev.seq = c.seq
	ev.fn = fn
	ev.label = label
	c.enqueue(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now. A negative d panics,
// mirroring At's past-time rule: a negative delay is always a simulator bug,
// and silently clamping it to zero would corrupt causality.
func (c *Clock) After(d Duration, fn func()) *Event {
	return c.AfterLabeled(d, "", fn)
}

// AfterLabeled is After with a debug label. Like After, negative d panics.
// An installed delay jitter (SetDelayJitter) is applied to d before
// scheduling; jittered delays are clamped to >= 0 rather than panicking,
// since the perturbation is injected, not a caller bug.
func (c *Clock) AfterLabeled(d Duration, label string, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simtime: scheduling event %q %v before now (negative After)", label, d))
	}
	if c.jitter != nil {
		if d = c.jitter(label, d); d < 0 {
			d = 0
		}
	}
	return c.AtLabeled(c.now+d, label, fn)
}

// Step executes the earliest pending event. It returns false when the queue
// is empty or the clock has been stopped.
func (c *Clock) Step() bool {
	if c.stopped || len(c.near) == 0 {
		return false
	}
	ev := c.near.popMin()
	if len(c.near) == 0 && len(c.far) > 0 {
		c.refill()
	}
	c.now = ev.when
	c.fired++
	if c.wdLimit > 0 {
		if ev.when == c.wdLast {
			c.wdCount++
		} else {
			c.wdLast, c.wdCount = ev.when, 1
		}
		c.wdRing[c.wdNext] = ev.label
		c.wdNext = (c.wdNext + 1) % wdRingSize
		if c.wdCount >= c.wdLimit && !c.wdFired {
			c.wdFired = true
			if fn := c.wdFn; fn != nil {
				fn(WatchdogInfo{Now: c.now, SameTimeEvents: c.wdCount, RecentLabels: c.recentLabels()})
			}
		}
	}
	fn := ev.fn
	prev := c.firing
	c.firing = ev
	fn()
	// Recycled only after the callback: during fn the fired event cannot be
	// reused, so a stale Cancel through an old reference stays a no-op
	// instead of killing an unrelated fresh event. A callback that called
	// Reschedule re-queued the very same Event; it must survive.
	if c.firing == ev {
		c.recycle(ev)
	}
	c.firing = prev
	return true
}

// Reschedule re-arms the event whose callback is currently executing to fire
// again d nanoseconds from now, reusing the same Event object (callback and
// label preserved) instead of recycling it. It is the allocation-free form of
// calling AfterLabeled(d, label, fn) from inside fn for periodic events, and
// is bit-identical to it: the re-armed event draws the same sequence number
// the equivalent AfterLabeled call would have drawn. An installed delay
// jitter applies exactly as in AfterLabeled. Calling Reschedule outside an
// event callback, twice in one callback, or with negative d panics.
func (c *Clock) Reschedule(d Duration) *Event {
	ev := c.firing
	if ev == nil {
		panic("simtime: Reschedule outside an event callback")
	}
	if d < 0 {
		panic(fmt.Sprintf("simtime: rescheduling event %q %v before now (negative delay)", ev.label, d))
	}
	if c.jitter != nil {
		if d = c.jitter(ev.label, d); d < 0 {
			d = 0
		}
	}
	c.firing = nil
	c.seq++
	ev.when = c.now + d
	ev.seq = c.seq
	c.enqueue(ev)
	return ev
}

// RunUntil executes events until the queue is exhausted, the next event
// would fire after t, or the clock is stopped. It then leaves the clock at
// t if the clock is behind it, even when Stop ended the loop early: the
// events left pending stay queued at their own times. It returns the
// number of events executed.
func (c *Clock) RunUntil(t Time) uint64 {
	var n uint64
	for !c.stopped && len(c.near) > 0 && c.near.min().when <= t {
		c.Step()
		n++
	}
	if c.now < t {
		c.now = t
	}
	return n
}

// Run executes events until the queue is empty or Stop is called.
func (c *Clock) Run() uint64 {
	var n uint64
	for c.Step() {
		n++
	}
	return n
}

// Stop halts Step/Run/RunUntil. Pending events remain queued.
func (c *Clock) Stop() { c.stopped = true }

// NextEventTime returns the firing time of the earliest queued event, or
// Infinity when the queue is empty.
func (c *Clock) NextEventTime() Time {
	if len(c.near) == 0 {
		return Infinity
	}
	return c.near.min().when
}

// enqueue routes a scheduled event to its tier.
func (c *Clock) enqueue(ev *Event) {
	switch {
	case ev.when < c.horizon:
		c.near.push(ev)
	case len(c.near) == 0:
		// The near tier drains only with the far tier (refill), so the
		// queue is empty and ev opens a new window.
		c.horizon = windowEnd(ev.when)
		c.near.push(ev)
	default:
		ev.index = inFar - len(c.far)
		c.far = append(c.far, ev)
	}
}

// removeFar takes ev out of the far tier by moving the last far event
// into its slot.
func (c *Clock) removeFar(ev *Event) {
	i, last := inFar-ev.index, len(c.far)-1
	moved := c.far[last]
	c.far[i] = moved
	moved.index = inFar - i
	c.far[last] = nil
	c.far = c.far[:last]
	ev.index = notQueued
}

// refill restocks the drained near tier: it opens the window that starts
// at the earliest far event and moves every far event inside it, keeping
// the rest in order at the front of the far tier.
func (c *Clock) refill() {
	m := c.far[0].when
	for _, ev := range c.far[1:] {
		m = min(m, ev.when)
	}
	c.horizon = windowEnd(m)
	kept := 0
	for _, ev := range c.far {
		if ev.when-m < farWindow { // ev.when < horizon, without overflow
			c.near.push(ev)
		} else {
			c.far[kept] = ev
			ev.index = inFar - kept
			kept++
		}
	}
	clear(c.far[kept:])
	c.far = c.far[:kept]
}

// windowEnd returns t + farWindow, saturating at Infinity.
func windowEnd(t Time) Time {
	if t > Infinity-farWindow {
		return Infinity
	}
	return t + farWindow
}

// eventHeap is the near tier: a slice sorted by (when, seq), latest
// first, so the earliest event is the last element. The name is historical
// (the tier used to be a 4-ary heap) and kept because profiles attribute
// the tier's cost by it. With about ten resident events a shift costs less
// than a heap's data-dependent sift; see the package comment.
type eventHeap []*Event

func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// min returns the earliest event; the tier must not be empty.
func (h eventHeap) min() *Event { return h[len(h)-1] }

// push inserts ev, shifting every event that fires before it up one slot.
func (h *eventHeap) push(ev *Event) {
	s := append(*h, ev)
	i := len(s) - 1
	for ; i > 0 && eventLess(s[i-1], ev); i-- {
		s[i] = s[i-1]
		s[i].index = i
	}
	s[i] = ev
	ev.index = i
	*h = s
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	s := *h
	last := len(s) - 1
	ev := s[last]
	s[last] = nil
	*h = s[:last]
	ev.index = notQueued
	return ev
}

// remove deletes the event at index i (Cancel path), shifting every event
// that fires before it down one slot.
func (h *eventHeap) remove(i int) {
	s := *h
	ev := s[i]
	last := len(s) - 1
	for ; i < last; i++ {
		s[i] = s[i+1]
		s[i].index = i
	}
	s[last] = nil
	*h = s[:last]
	ev.index = notQueued
}
