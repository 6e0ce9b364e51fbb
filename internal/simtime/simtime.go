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
// arms a 30 ms slice timer that a yield stops microseconds later. On the
// dedup co-run, such timers were a third of all schedules and 78% of all
// cancels before Timer made the stop lazy, and only 0.09% of them fire,
// while guest progress events land
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
// link fields, so an Event (42 B) fits the 48-byte size class.
//
// Events come in two lifetimes. The clock keeps a free list of fired and
// cancelled At/After events, so steady-state schedule/fire/cancel cycles
// allocate nothing. The price of the recycling is a handle-lifetime rule:
// an *Event returned by At/After is valid only until the event fires or is
// cancelled. Holders that keep such an event in a field must clear that
// field when the callback runs and must never Cancel through a reference to
// an event that already fired. The hot timers instead embed an owned Event
// by value (Clock.Bind) and re-arm it in place (Event.Arm): it never
// touches the free list, its handle never dies, and the rule does not apply
// to it. Arm draws the sequence number After would have, so the firing
// order is the same as with fresh events.
//
// Timer is an owned event with a lazy Stop for the credit scheduler's slice
// timers, nearly all of which are stopped long before they fire: a stopped
// far-tier entry stays queued, and is dropped or moved to the live deadline
// when it pops, instead of being removed and re-inserted on every dispatch.
package simtime

import (
	"fmt"
	"slices"
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

// Kind names what an event does; kind 0 is the unkinded event of At and
// After.
type Kind uint8

// maxKinds bounds the registry: every Clock holds a counter per possible
// kind, and 32 of them keep a Clock at 424 B.
const maxKinds = 32

// kindNames holds every registered kind's name, indexed by Kind. NewKind
// appends to it during package initialisation only, so later reads from
// concurrent runs need no lock.
var kindNames = []string{""}

// NewKind registers a kind named name and returns it. Call it only from a
// package-level variable's initialiser. An empty or already registered
// name panics, as does a 32nd kind.
func NewKind(name string) Kind {
	if slices.Contains(kindNames, name) || len(kindNames) == maxKinds {
		panic("simtime: event kind " + strconv.Quote(name) + " is a duplicate or past 31 kinds")
	}
	kindNames = append(kindNames, name)
	return Kind(len(kindNames) - 1)
}

// String returns the kind's registered name, "" for the unkinded event.
func (k Kind) String() string { return kindNames[k] }

// Event is a scheduled callback. Events are created through Clock.At or
// Clock.After and may be cancelled until they fire; those handles are valid
// only while the event is queued, since the clock recycles the Event once it
// fires or is cancelled (see the package comment).
//
// An owned Event is instead embedded in its holder and initialised with
// Clock.Bind: it keeps its callback for life, Arm re-queues it, and the
// clock never recycles it, so the handle stays valid forever.
type Event struct {
	when  Time
	seq   uint64
	index int // near-tier position (>= 0), notQueued, or inFar - far-tier slot
	fn    func()
	clock *Clock // owning clock, fixed when the Event is allocated or bound
	kind  Kind   // 0 for At/After events; set by Bind or ArmKind when owned
	owned bool   // bound by Clock.Bind: never recycled
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
// An owned event stays bound and can be armed again.
func (e *Event) Cancel() bool {
	if e == nil || e.index == notQueued {
		return false
	}
	e.clock.cancel(e)
	return true
}

// Kind returns what the event does.
func (e *Event) Kind() Kind { return e.kind }

// Arm queues an owned event (see Clock.Bind) to fire d nanoseconds from now.
// It is exactly After(d, fn) with the bound callback: the same
// sequence-number draw and the same panic on a negative d. Arming an event
// that is still queued panics.
func (e *Event) Arm(d Duration) {
	if !e.owned || e.index != notQueued {
		e.badArm()
	}
	c := e.clock
	e.when = c.deadline(d, e.kind)
	c.seq++
	e.seq = c.seq
	c.enqueue(e)
}

// ArmKind is Arm for an owned event that does different things on
// different fires: the event takes kind k, which it keeps until the next
// ArmKind, so each fire counts under what it does.
func (e *Event) ArmKind(d Duration, k Kind) {
	e.kind = k
	e.Arm(d)
}

func (e *Event) badArm() {
	if !e.owned {
		panic("simtime: Arm of an event not bound with Clock.Bind")
	}
	panic("simtime: Arm of the still queued event " + strconv.Quote(e.kind.String()))
}

// Timer is an owned one-shot timer whose Stop is lazy. It serves the
// credit scheduler's slice timer, which nearly every dispatch arms 30 ms
// ahead and a yield stops microseconds later.
//
// Set reserves the key (when, seq) that After would have drawn, so
// the timer fires exactly where that event would have. The timer's single
// queue entry need not sit at that key: Stop leaves an entry in the far
// tier in place, and a later Set leaves an entry that pops no later than
// the new key. When the entry pops, it fires the callback if its key is the
// live one, re-queues itself at the live key if the deadline moved, and is
// dropped if the timer is stopped. Only the firing order of the callback is
// observable; each stale pop is one extra Step.
type Timer struct {
	ev    Event // the queue entry, bound to pop
	when  Time  // live deadline, valid while armed
	seq   uint64
	armed bool
	fn    func()
}

// BindTimer initialises the zero Timer t, embedded in its holder, with a
// fixed kind and callback. Every pop of its queue entry counts under k,
// stale ones included.
func (c *Clock) BindTimer(t *Timer, k Kind, fn func()) {
	c.Bind(&t.ev, k, t.pop)
	t.fn = fn
}

// Set arms the timer to fire d nanoseconds from now, with the
// sequence-number draw and panics of After. Arming a timer that is already
// armed moves its deadline.
func (t *Timer) Set(d Duration) {
	c := t.ev.clock
	t.when = c.deadline(d, t.ev.kind)
	c.seq++
	t.seq = c.seq
	t.armed = true
	switch {
	case t.ev.index == notQueued:
		t.ev.when, t.ev.seq = t.when, t.seq
		c.enqueue(&t.ev)
	case t.ev.when > t.when:
		// The entry would pop after the new deadline (a 0.1 ms micro slice
		// after a 30 ms one): re-key it. An entry that pops earlier stays
		// and re-queues itself when it pops.
		c.dequeue(&t.ev)
		t.ev.when, t.ev.seq = t.when, t.seq
		c.enqueue(&t.ev)
	}
}

// Stop disarms the timer. An entry in the far tier stays queued, to be
// dropped or re-used when it pops; one in the near tier is removed at once,
// since stale near entries lengthen every insertion's shift.
func (t *Timer) Stop() {
	t.armed = false
	if t.ev.index >= 0 {
		t.ev.clock.dequeue(&t.ev)
	}
}

// Cancel disarms the timer and removes its queue entry from either tier.
func (t *Timer) Cancel() {
	t.armed = false
	t.ev.Cancel()
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.armed }

// pop handles the timer's queue entry reaching the front of the queue.
func (t *Timer) pop() {
	switch {
	case !t.armed:
	case t.ev.seq == t.seq:
		t.armed = false
		t.fn()
	default:
		t.ev.when, t.ev.seq = t.when, t.seq
		c := t.ev.clock
		if len(c.near) > 0 && eventLess(&t.ev, c.near[0]) {
			// The reserved seq is older than the events scheduled since
			// Set, so at a horizon of Infinity the live key can precede
			// a near event at Infinity; enqueue would put it far.
			c.near.push(&t.ev)
			return
		}
		c.enqueue(&t.ev)
	}
}

// WatchdogInfo is the diagnostic snapshot handed to a livelock watchdog.
type WatchdogInfo struct {
	// Now is the virtual time the event loop is stuck at.
	Now Time
	// SameTimeEvents counts consecutive events executed without the
	// virtual clock advancing.
	SameTimeEvents uint64
	// RecentLabels holds the kind names of the most recent events, oldest
	// first (unkinded events appear as ""), for post-mortem diagnosis.
	RecentLabels []string
}

// wdRingSize is the number of recent event kinds kept for watchdog
// diagnostics.
const wdRingSize = 16

// Clock owns virtual time and the pending-event queue.
type Clock struct {
	now     Time
	near    eventHeap // events with when < horizon
	far     []*Event  // events with when >= horizon, unordered
	horizon Time
	seq     uint64
	stopped bool
	free    []*Event // recycled Event objects (see package comment)

	// Watchdog state: when wdLimit > 0, Step counts consecutive events
	// executed at an unchanged virtual time and fires wdFn once the count
	// reaches the limit (event-loop livelock: work without progress).
	wdLimit uint64
	wdCount uint64
	wdLast  Time
	wdFn    func(WatchdogInfo)
	wdRing  [wdRingSize]Kind
	wdNext  int
	wdFired bool

	fired [maxKinds]uint64 // events executed, by kind
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

// recentLabels returns the names of the watchdog kind ring, oldest first.
func (c *Clock) recentLabels() []string {
	out := make([]string, 0, wdRingSize)
	for i := 0; i < wdRingSize; i++ {
		out = append(out, c.wdRing[(c.wdNext+i)%wdRingSize].String())
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
func (c *Clock) Fired() uint64 {
	var n uint64
	for _, f := range c.fired {
		n += f
	}
	return n
}

// FiredByKind returns the number of events executed so far of every
// registered kind, indexed by Kind. The counts sum to Fired.
func (c *Clock) FiredByKind() []uint64 {
	return slices.Clone(c.fired[:len(kindNames)])
}

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
	ev.index = notQueued
	c.free = append(c.free, ev)
}

// At schedules fn to run at time t. Scheduling in the past panics: that is
// always a simulator bug, and silently clamping would corrupt causality.
func (c *Clock) At(t Time, fn func()) *Event {
	if t < c.now {
		panic(fmt.Sprintf("simtime: scheduling an event at %v before now %v", t, c.now))
	}
	if fn == nil {
		panic("simtime: nil event callback")
	}
	c.seq++
	ev := c.alloc()
	ev.when = t
	ev.seq = c.seq
	ev.fn = fn
	c.enqueue(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now. A negative d panics,
// mirroring At's past-time rule: a negative delay is always a simulator bug,
// and silently clamping it to zero would corrupt causality.
func (c *Clock) After(d Duration, fn func()) *Event {
	return c.At(c.deadline(d, 0), fn)
}

// deadline returns the firing time of an event of kind k scheduled d from
// now. The common case, a delay that is not negative, inlines.
func (c *Clock) deadline(d Duration, k Kind) Time {
	if d < 0 {
		negativeDelay(d, k)
	}
	return c.now + d
}

// negativeDelay panics for deadline, out of line so that deadline inlines.
//
//go:noinline
func negativeDelay(d Duration, k Kind) {
	panic(fmt.Sprintf("simtime: scheduling event %q %v before now (negative After)", k.String(), d))
}

// Bind initialises the zero Event e, embedded in its holder, as an owned
// event of c with kind k and a fixed callback. Arm queues it; neither its
// firing nor Cancel recycles it, so holders keep it for life and test
// Pending instead of clearing a pointer. Binding an event twice or with a
// nil callback panics.
func (c *Clock) Bind(e *Event, k Kind, fn func()) {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	if e.clock != nil {
		panic("simtime: Bind of an already bound event " + strconv.Quote(k.String()))
	}
	*e = Event{index: notQueued, fn: fn, kind: k, clock: c, owned: true}
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
	// NewKind keeps every kind below maxKinds, so the mask changes no index;
	// it only drops a bounds check that cost BenchmarkClockNearTier/near=8
	// about 8% on an Intel Xeon host.
	c.fired[ev.kind%maxKinds]++
	if c.wdLimit > 0 {
		if ev.when == c.wdLast {
			c.wdCount++
		} else {
			c.wdLast, c.wdCount = ev.when, 1
		}
		if c.wdCount+wdRingSize > c.wdLimit {
			c.watch(ev.kind)
		}
	}
	ev.fn()
	// Recycled only after the callback: during fn the fired event cannot be
	// reused, so a stale Cancel through an old reference stays a no-op
	// instead of killing an unrelated fresh event. An owned event is never
	// recycled; its callback may already have armed it again.
	if !ev.owned {
		c.recycle(ev)
	}
	return true
}

// watch records the kind of one of the last wdRingSize events before the
// same-time count can reach the watchdog's limit, and fires the watchdog
// at the limit. The ring is read only then, so writing it only here keeps
// RecentLabels exact.
func (c *Clock) watch(k Kind) {
	c.wdRing[c.wdNext] = k
	c.wdNext = (c.wdNext + 1) % wdRingSize
	if c.wdCount >= c.wdLimit && !c.wdFired {
		c.wdFired = true
		if fn := c.wdFn; fn != nil {
			fn(WatchdogInfo{Now: c.now, SameTimeEvents: c.wdCount, RecentLabels: c.recentLabels()})
		}
	}
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

// cancel takes a queued event out of the queue and recycles it unless it
// is owned. It is Cancel's slow path, kept apart so that Cancel of an event
// that is not queued inlines.
func (c *Clock) cancel(e *Event) {
	c.dequeue(e)
	if !e.owned {
		c.recycle(e)
	}
}

// dequeue takes a queued event out of its tier, restocking a drained near
// tier.
func (c *Clock) dequeue(ev *Event) {
	if ev.index <= inFar {
		c.removeFar(ev)
		return
	}
	c.near.remove(ev.index)
	if len(c.near) == 0 && len(c.far) > 0 {
		c.refill()
	}
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
