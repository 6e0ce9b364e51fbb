package simtime

import (
	"fmt"
	"math/rand"
	"testing"
)

// The differential test below drives Clock and refClock, a slice scanned
// in O(n) for the minimum (when, seq), with the same decoded stream of
// operations and compares every observable after each one.

// refClock is the reference queue. tieLater flips the seq tie-break; it
// exists only so a test can show the comparison has teeth.
type refClock struct {
	now      Time
	seq      uint64
	fired    uint64
	stopped  bool
	queue    []*refEvent
	tieLater bool
	// hints holds, for every Timer.Stop of the real clock in order, whether
	// it removed a near-tier entry at once. The reference has no tiers, so
	// it takes that choice from the real queue and models its effects.
	hints   *[]bool
	hintPos int
}

// refEvent is a reference event. The reference never recycles, so every
// event is also a valid owned event.
type refEvent struct {
	when   Time
	seq    uint64
	fn     func()
	queued bool
	c      *refClock
}

func (r *refClock) Now() Time        { return r.now }
func (r *refClock) Fired() uint64    { return r.fired }
func (r *refClock) Pending() int     { return len(r.queue) }
func (r *refClock) Stop()            { r.stopped = true }
func (e *refEvent) Pending() bool    { return e.queued }
func (r *refClock) push(e *refEvent) { e.queued = true; r.queue = append(r.queue, e) }

func (r *refClock) At(t Time, fn func()) fuzzEvent {
	r.seq++
	e := &refEvent{when: t, seq: r.seq, fn: fn, c: r}
	r.push(e)
	return e
}

func (r *refClock) After(d Duration, fn func()) fuzzEvent { return r.At(r.now+d, fn) }

func (r *refClock) Owned(fn func()) fuzzOwned { return &refEvent{fn: fn, c: r} }

func (e *refEvent) Arm(d Duration) {
	if e.queued {
		panic("reference: Arm of a queued event")
	}
	e.c.seq++
	e.when, e.seq = e.c.now+d, e.c.seq
	e.c.push(e)
}

// refTimer models Timer: one queue entry and a live key.
type refTimer struct {
	entry *refEvent
	when  Time
	seq   uint64
	armed bool
	fn    func()
}

func (r *refClock) Timer(fn func()) fuzzTimer {
	t := &refTimer{fn: fn}
	t.entry = &refEvent{fn: t.pop, c: r}
	return t
}

func (t *refTimer) Set(d Duration) {
	r := t.entry.c
	r.seq++
	t.when, t.seq, t.armed = r.now+d, r.seq, true
	if !t.entry.queued || t.entry.when > t.when {
		t.entry.Cancel()
		t.entry.when, t.entry.seq = t.when, t.seq
		r.push(t.entry)
	}
}

func (t *refTimer) Stop() {
	r := t.entry.c
	eager := r.hintPos < len(*r.hints) && (*r.hints)[r.hintPos]
	r.hintPos++
	t.armed = false
	if eager {
		t.entry.Cancel()
	}
}

func (t *refTimer) Cancel()       { t.armed = false; t.entry.Cancel() }
func (t *refTimer) Pending() bool { return t.armed }

func (t *refTimer) pop() {
	switch {
	case !t.armed:
	case t.entry.seq == t.seq:
		t.armed = false
		t.fn()
	default:
		t.entry.when, t.entry.seq = t.when, t.seq
		t.entry.c.push(t.entry)
	}
}

// min returns the queue position of the earliest event, or -1.
func (r *refClock) min() int {
	best := -1
	for i, e := range r.queue {
		if best < 0 {
			best = i
			continue
		}
		b := r.queue[best]
		if e.when < b.when || e.when == b.when && (e.seq < b.seq) != r.tieLater {
			best = i
		}
	}
	return best
}

func (r *refClock) take(i int) *refEvent {
	e := r.queue[i]
	r.queue = append(r.queue[:i], r.queue[i+1:]...)
	e.queued = false
	return e
}

func (r *refClock) Step() bool {
	if r.stopped || len(r.queue) == 0 {
		return false
	}
	e := r.take(r.min())
	r.now = e.when
	r.fired++
	e.fn()
	return true
}

func (r *refClock) RunUntil(t Time) uint64 {
	var n uint64
	for !r.stopped && len(r.queue) > 0 && r.queue[r.min()].when <= t {
		r.Step()
		n++
	}
	if r.now < t {
		r.now = t
	}
	return n
}

func (r *refClock) NextEventTime() Time {
	if i := r.min(); i >= 0 {
		return r.queue[i].when
	}
	return Infinity
}

func (e *refEvent) Cancel() bool {
	if !e.queued {
		return false
	}
	for i, q := range e.c.queue {
		if q == e {
			e.c.take(i)
			return true
		}
	}
	panic("queued reference event missing from its queue")
}

// fuzzClock is the surface both queues expose to the driver.
type fuzzClock interface {
	Now() Time
	At(t Time, fn func()) fuzzEvent
	After(d Duration, fn func()) fuzzEvent
	Owned(fn func()) fuzzOwned // bound, not yet armed
	Timer(fn func()) fuzzTimer
	RunUntil(t Time) uint64
	Step() bool
	Stop()
	Pending() int
	NextEventTime() Time
	Fired() uint64
}

type fuzzEvent interface {
	Cancel() bool
	Pending() bool
}

type fuzzOwned interface {
	fuzzEvent
	Arm(d Duration)
}

type fuzzTimer interface {
	Set(d Duration)
	Stop()
	Cancel()
	Pending() bool
}

// realClock adapts *Clock to fuzzClock.
type realClock struct {
	*Clock
	hints *[]bool
}

func (c realClock) At(t Time, fn func()) fuzzEvent { return c.Clock.At(t, fn) }
func (c realClock) After(d Duration, fn func()) fuzzEvent {
	return c.Clock.AfterLabeled(d, "fuzz", fn)
}

func (c realClock) Owned(fn func()) fuzzOwned {
	e := new(Event)
	c.Clock.Bind(e, "fuzz", fn)
	return e
}

func (c realClock) Timer(fn func()) fuzzTimer {
	t := new(Timer)
	c.Clock.BindTimer(t, "fuzz", fn)
	return realTimer{t, c.hints}
}

// realTimer records, for the reference, whether each Stop is eager.
type realTimer struct {
	*Timer
	hints *[]bool
}

func (t realTimer) Stop() {
	*t.hints = append(*t.hints, t.ev.index >= 0)
	t.Timer.Stop()
}

// Operations and callback actions of a decoded stream.
const (
	opAt = iota
	opAt2
	opAfter
	opCancel
	opRunUntil
	opRunUntil2
	opStep
	opStopOrStep
	opTimer
	opKinds
)

const (
	actNone  = iota
	actRearm // the owned event arms itself again
	actCancel
	actSpawn
	actRearmOther // re-arm an owned event that is not queued (cancelled or fired)
	actTimer      // set, stop or cancel one of the lazy timers (timerOp)
	actKinds
)

// fuzzAction is what an event's callback does after it logs its firing.
type fuzzAction struct {
	kind   int
	delta  Duration // re-arm/spawn/timer delay, clamped so now+delta <= Infinity
	target int      // actCancel/actRearmOther: event id, modulo the events made so far; actTimer: timerOp's selector
	repeat int      // re-arm/spawn budget
}

// fuzzOp is one top-level operation; when is resolved against the real
// clock's state just before the operation is applied to both queues.
type fuzzOp struct {
	kind          int
	class, arg    byte
	act           fuzzAction
	target, extra byte
}

const fuzzOpBytes = 9

func decodeFuzzOps(data []byte) []fuzzOp {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	var ops []fuzzOp
	for i := 0; i < len(data) && len(ops) < 256; i += fuzzOpBytes {
		ops = append(ops, fuzzOp{
			kind:  int(at(i)) % opKinds,
			class: at(i + 1),
			arg:   at(i + 2),
			act: fuzzAction{
				kind:   int(at(i+3)) % actKinds,
				delta:  fuzzDelta(at(i+4), at(i+5)),
				target: int(at(i + 6)),
				repeat: int(at(i+6)) % 4,
			},
			target: at(i + 7),
			extra:  at(i + 8),
		})
	}
	return ops
}

// fuzzDelta decodes a callback delay. It cannot depend on queue internals,
// since the reference has none.
func fuzzDelta(class, arg byte) Duration {
	switch class % 8 {
	case 0:
		return 0
	case 1:
		return Duration(arg)
	case 2:
		return Duration(arg) * Microsecond
	case 3:
		return farWindow + Duration(arg%3) - 1
	case 4:
		return 30*Millisecond + Duration(arg)
	case 5:
		return 10 * Millisecond
	case 6:
		return Duration(arg) * 20 * Microsecond
	default:
		return Infinity
	}
}

// fuzzTime resolves a top-level time against the real clock: both tiers,
// the horizon itself, equal-time ties and times near Infinity.
func fuzzTime(c *Clock, class, arg byte, last Time) Time {
	now := c.Now()
	var t Time
	switch class % 8 {
	case 0:
		t = now
	case 1:
		t = satAdd(now, Duration(arg))
	case 2:
		t = satAdd(now, Duration(arg)*Microsecond)
	case 3:
		t = satAdd(c.horizon, Duration(arg%3)) - 1
	case 4:
		t = satAdd(now, 10*Millisecond*Duration(1+arg%3))
	case 5:
		t = Infinity - Duration(arg)*10*Microsecond
	case 6:
		t = satAdd(last, farWindow*Duration(arg%2)) // a tie, or one window on
	default:
		t = satAdd(now, Duration(arg)*20*Microsecond)
	}
	return max(t, now)
}

func satAdd(t Time, d Duration) Time {
	if d > Infinity-t {
		return Infinity
	}
	return t + d
}

type fuzzEntry struct {
	what byte // 'F' fired, 'T' timer fired, 'A' re-armed, 'C' cancel result, 'R' RunUntil count, 'S' Step result
	id   int
	t    Time
	n    uint64
}

// fuzzTimers is the number of lazy timers in a world.
const fuzzTimers = 2

// fuzzWorld runs a stream against one queue. Event ids count schedules in
// creation order, so they agree between worlds as long as the queues do.
type fuzzWorld struct {
	clk   fuzzClock
	evs   []fuzzEvent
	owned []bool // bound with Owned: the handle never dies
	alive []bool // the stream's own view: queued (and, if not owned, safe to Cancel)
	log   []fuzzEntry

	timers     [fuzzTimers]fuzzTimer
	timerLeft  [fuzzTimers]int // re-sets the timer's callback still makes
	timerDelta [fuzzTimers]Duration
}

func newFuzzWorld(clk fuzzClock) *fuzzWorld {
	w := &fuzzWorld{clk: clk}
	for i := range w.timers {
		w.timers[i] = clk.Timer(func() {
			now := w.clk.Now()
			w.log = append(w.log, fuzzEntry{what: 'T', id: i, t: now})
			if w.timerLeft[i] > 0 {
				w.timerLeft[i]--
				w.timers[i].Set(min(w.timerDelta[i], Infinity-now))
			}
		})
	}
	return w
}

// schedule makes event id len(w.evs) at t: an owned event armed t-now
// ahead, an After event or an At event.
func (w *fuzzWorld) schedule(t Time, a fuzzAction, after, owned bool) {
	id := len(w.evs)
	left := a.repeat
	var own fuzzOwned
	fn := func() {
		w.alive[id] = false
		now := w.clk.Now()
		w.log = append(w.log, fuzzEntry{what: 'F', id: id, t: now})
		switch a.kind {
		case actRearm:
			if left > 0 && own != nil {
				left--
				own.Arm(min(a.delta, Infinity-now))
				w.alive[id] = true
			}
		case actCancel:
			w.cancel(a.target%len(w.evs), id)
		case actSpawn:
			if left > 0 {
				w.schedule(satAdd(now, a.delta), fuzzAction{kind: actSpawn, delta: a.delta, repeat: left - 1}, true, false)
			}
		case actRearmOther:
			if left > 0 {
				left--
				w.rearm(a.target%len(w.evs), a.delta)
			}
		case actTimer:
			w.timerOp(a)
		}
	}
	var ev fuzzEvent
	switch {
	case owned:
		own = w.clk.Owned(fn)
		own.Arm(t - w.clk.Now())
		ev = own
	case after:
		ev = w.clk.After(t-w.clk.Now(), fn)
	default:
		ev = w.clk.At(t, fn)
	}
	w.evs = append(w.evs, ev)
	w.owned = append(w.owned, owned)
	w.alive = append(w.alive, true)
}

// cancel cancels event id if the handle is still valid: owned, queued, or
// the event whose callback is running (firing, where Cancel must report
// false).
func (w *fuzzWorld) cancel(id, firing int) {
	if !w.alive[id] && id != firing && !w.owned[id] {
		return
	}
	ok := w.evs[id].Cancel()
	w.alive[id] = w.alive[id] && !ok
	w.log = append(w.log, fuzzEntry{what: 'C', id: id, n: b2u(ok)})
}

// rearm arms owned event id again if it is not queued.
func (w *fuzzWorld) rearm(id int, d Duration) {
	if !w.owned[id] || w.alive[id] {
		return
	}
	w.evs[id].(fuzzOwned).Arm(min(d, Infinity-w.clk.Now()))
	w.alive[id] = true
	w.log = append(w.log, fuzzEntry{what: 'A', id: id})
}

// timerOp drives lazy timer (a.target>>2)%fuzzTimers: set it (its callback
// then re-sets it a.repeat times), stop it, set, stop and re-set it to an
// earlier key, or cancel it.
func (w *fuzzWorld) timerOp(a fuzzAction) {
	i := a.target >> 2 % fuzzTimers
	tm := w.timers[i]
	d := min(a.delta, Infinity-w.clk.Now())
	switch a.target >> 3 % 4 {
	case 0:
		tm.Set(d)
		w.timerLeft[i], w.timerDelta[i] = a.repeat, a.delta
	case 1:
		tm.Stop()
	case 2:
		tm.Set(d)
		tm.Stop()
		tm.Set(d / 2)
	default:
		tm.Cancel()
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (w *fuzzWorld) apply(op fuzzOp, t Time) {
	switch op.kind {
	case opAt, opAt2, opAfter:
		w.schedule(t, op.act, op.kind == opAfter, op.act.kind == actRearm || op.extra&1 == 1)
	case opCancel:
		if len(w.evs) > 0 {
			w.cancel(int(op.target)%len(w.evs), -1)
		}
	case opRunUntil, opRunUntil2:
		w.log = append(w.log, fuzzEntry{what: 'R', n: w.clk.RunUntil(t)})
	case opTimer:
		w.timerOp(op.act)
	case opStopOrStep:
		if op.extra < 8 {
			w.clk.Stop()
			return
		}
		fallthrough
	case opStep:
		w.log = append(w.log, fuzzEntry{what: 'S', n: b2u(w.clk.Step())})
	}
}

// diffClockAgainstReference runs data through Clock and refClock and
// returns the first difference in any observable.
func diffClockAgainstReference(data []byte, tieLater bool) error {
	clk := NewClock()
	var hints []bool
	fast := newFuzzWorld(realClock{clk, &hints})
	ref := newFuzzWorld(&refClock{tieLater: tieLater, hints: &hints})
	last := Time(0)
	for i, op := range decodeFuzzOps(data) {
		t := fuzzTime(clk, op.class, op.arg, last)
		if op.kind == opAt || op.kind == opAt2 || op.kind == opAfter {
			last = t
		}
		fast.apply(op, t)
		ref.apply(op, t)
		if err := compareWorlds(fast, ref); err != nil {
			return fmt.Errorf("op %d (%+v, t=%v): %w", i, op, t, err)
		}
		if err := checkQueueInvariants(clk); err != nil {
			return fmt.Errorf("op %d (%+v, t=%v): %w", i, op, t, err)
		}
	}
	return nil
}

func compareWorlds(fast, ref *fuzzWorld) error {
	if len(fast.log) != len(ref.log) {
		return fmt.Errorf("log length %d, reference %d", len(fast.log), len(ref.log))
	}
	for i := range fast.log {
		if fast.log[i] != ref.log[i] {
			return fmt.Errorf("log entry %d is %+v, reference %+v", i, fast.log[i], ref.log[i])
		}
	}
	if len(fast.evs) != len(ref.evs) {
		return fmt.Errorf("%d events made, reference %d", len(fast.evs), len(ref.evs))
	}
	a, b := fast.clk, ref.clk
	if a.Now() != b.Now() || a.Pending() != b.Pending() || a.NextEventTime() != b.NextEventTime() || a.Fired() != b.Fired() {
		return fmt.Errorf("now/pending/next/fired %v/%d/%v/%d, reference %v/%d/%v/%d",
			a.Now(), a.Pending(), a.NextEventTime(), a.Fired(), b.Now(), b.Pending(), b.NextEventTime(), b.Fired())
	}
	for id, alive := range ref.alive {
		if alive != fast.alive[id] || ref.evs[id].Pending() != alive {
			return fmt.Errorf("event %d: queued %v, reference %v (reference Pending %v)", id, fast.alive[id], alive, ref.evs[id].Pending())
		}
		// A dead At/After handle may already be recycled; only a queued or
		// owned one is guaranteed to report its own state.
		if (alive || fast.owned[id]) && fast.evs[id].Pending() != alive {
			return fmt.Errorf("event %d: Pending() is %v, want %v", id, !alive, alive)
		}
	}
	for i := range ref.timers {
		if fast.timers[i].Pending() != ref.timers[i].Pending() {
			return fmt.Errorf("timer %d: Pending() is %v, reference %v", i, fast.timers[i].Pending(), ref.timers[i].Pending())
		}
	}
	return nil
}

// checkQueueInvariants checks the two-tier layout directly: a near tier
// strictly descending in (when, seq) with index == position, below the
// horizon (a saturated horizon also admits events at Infinity), an
// index-consistent far tier at or above it, and no far events behind an
// empty near tier.
func checkQueueInvariants(c *Clock) error {
	for i, ev := range c.near {
		if ev.index != i {
			return fmt.Errorf("near[%d] has index %d", i, ev.index)
		}
		if i > 0 && !eventLess(ev, c.near[i-1]) {
			return fmt.Errorf("near[%d] does not fire before near[%d]", i, i-1)
		}
		if ev.when >= c.horizon && c.horizon != Infinity {
			return fmt.Errorf("near event at %v at or above horizon %v", ev.when, c.horizon)
		}
	}
	for i, ev := range c.far {
		if ev.index != inFar-i {
			return fmt.Errorf("far[%d] has index %d", i, ev.index)
		}
		if ev.when < c.horizon {
			return fmt.Errorf("far event at %v below horizon %v", ev.when, c.horizon)
		}
		if len(c.near) == 0 {
			return fmt.Errorf("far event at %v behind an empty near tier", ev.when)
		}
		if eventLess(ev, c.near.min()) {
			return fmt.Errorf("far event at %v precedes the near minimum at %v", ev.when, c.near.min().when)
		}
	}
	return nil
}

// The invariant check must report a near tier with one adjacent pair out
// of order or one stale index.
func TestQueueInvariantsCatchBrokenNearTier(t *testing.T) {
	c := NewClock()
	for i := 1; i <= 4; i++ {
		c.After(Duration(i), func() {})
	}
	if err := checkQueueInvariants(c); err != nil {
		t.Fatalf("valid queue reported: %v", err)
	}
	n := c.near
	n[1], n[2] = n[2], n[1]
	n[1].index, n[2].index = 1, 2
	if checkQueueInvariants(c) == nil {
		t.Fatal("swapped adjacent pair not reported")
	}
	n[1], n[2] = n[2], n[1]
	n[1].index, n[2].index = 1, 2
	n[3].index = 0
	if checkQueueInvariants(c) == nil {
		t.Fatal("stale index not reported")
	}
	n[3].index = 3
	if err := checkQueueInvariants(c); err != nil {
		t.Fatalf("restored queue reported: %v", err)
	}
}

// Events at one time fire in seq order whichever order they reach the near
// tier in. A refill pushes far events in far-tier order, which a far cancel
// unsorts, and they are older than the near events that join them later.
func TestNearTierEqualWhenFiresInSeqOrder(t *testing.T) {
	c := NewClock()
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	c.At(10, rec(0)) // opens the window [10, 10+farWindow)
	const at = 2 * farWindow
	gone := c.At(at, rec(9)) // far[0]
	c.At(at, rec(1))         // far[1]
	c.At(at, rec(2))         // far[2]
	gone.Cancel()            // moves 2 into far[0]: far is [2, 1]
	c.Step()                 // fires 0; the refill pushes 2, then the older 1
	c.At(at, rec(3))         // near, behind them
	c.At(at, rec(4))
	if err := checkQueueInvariants(c); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("fired %v, want [0 1 2 3 4]", got)
	}
}

// Cancelling the earliest, a middle and the latest near event keeps the
// tier sorted and every other event firing in order.
func TestNearTierCancelHeadMiddleTail(t *testing.T) {
	for _, victim := range []int{0, 2, 4} { // earliest, middle, latest
		c := NewClock()
		var got []int
		evs := make([]*Event, 5)
		for i := range evs {
			id := i
			evs[i] = c.After(Duration(10*(i+1)), func() { got = append(got, id) })
		}
		if !evs[victim].Cancel() || evs[victim].Pending() {
			t.Fatalf("victim %d: cancel failed", victim)
		}
		if err := checkQueueInvariants(c); err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if want := Time(10 + 10*b2u(victim == 0)); c.NextEventTime() != want {
			t.Fatalf("victim %d: next event at %v, want %v", victim, c.NextEventTime(), want)
		}
		c.Run()
		var want []int
		for i := range evs {
			if i != victim {
				want = append(want, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("victim %d: fired %v, want %v", victim, got, want)
		}
	}
}

// An owned event armed from its own callback goes back into the near tier
// at its new (when, seq) place, behind an event at the same time scheduled
// first.
func TestArmFromCallbackBackIntoNearTier(t *testing.T) {
	c := NewClock()
	var got []string
	c.At(5, func() { got = append(got, "other") }) // fires at 5 before the re-armed event
	c.At(30, func() { got = append(got, "late") })
	var periodic Event
	rearmed := false
	c.Bind(&periodic, "periodic", func() {
		got = append(got, "periodic")
		if !rearmed {
			rearmed = true
			periodic.Arm(29) // now 1: fires at 30, after "late" (older seq)
			if periodic.index < 0 {
				t.Errorf("re-armed event not in the near tier (index %d)", periodic.index)
			}
		}
	})
	periodic.Arm(1)
	c.Step()
	if err := checkQueueInvariants(c); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if fmt.Sprint(got) != "[periodic other late periodic]" {
		t.Fatalf("fired %v", got)
	}
	if periodic.Pending() || periodic.fn == nil || periodic.clock != c {
		t.Fatal("a fired owned event must stay bound and unqueued")
	}
}

// A cancelled owned event keeps its binding and re-arms with a fresh seq,
// behind an event already queued at the same time; Arm of a queued event
// and Arm of an unbound one panic.
func TestOwnedEventCancelAndRearm(t *testing.T) {
	c := NewClock()
	var got []string
	var ev Event
	c.Bind(&ev, "owned", func() { got = append(got, "owned") })
	ev.Arm(10)
	if !ev.Cancel() || ev.Pending() || ev.Cancel() {
		t.Fatal("cancel of an armed owned event")
	}
	c.At(10, func() { got = append(got, "at") })
	ev.Arm(10)
	mustPanic(t, "Arm of a queued event", func() { ev.Arm(1) })
	mustPanic(t, "Arm of an unbound event", func() { new(Event).Arm(1) })
	mustPanic(t, "Bind of a bound event", func() { c.Bind(&ev, "again", func() {}) })
	mustPanic(t, "negative Arm", func() {
		var e Event
		c.Bind(&e, "neg", func() {})
		e.Arm(-1)
	})
	c.Run()
	if fmt.Sprint(got) != "[at owned]" {
		t.Fatalf("fired %v, want [at owned]", got)
	}
	if len(c.free) != 1 {
		t.Fatalf("free list holds %d events, want only the At event", len(c.free))
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// A stopped timer's far-tier entry stays queued and is dropped when it
// pops; a near-tier entry is removed at once; a re-set to an earlier key
// re-keys a later entry; a re-set to a later key re-queues an earlier
// entry when it pops; Cancel removes a far entry.
func TestTimerLazyStop(t *testing.T) {
	c := NewClock()
	var fired []Time
	var tm Timer
	c.BindTimer(&tm, "slice", func() { fired = append(fired, c.Now()) })
	c.At(0, func() {}) // opens the window [0, farWindow): the slice lands far

	tm.Set(30 * Millisecond)
	if tm.ev.index > inFar {
		t.Fatalf("30 ms entry not in the far tier (index %d)", tm.ev.index)
	}
	tm.Stop()
	if tm.Pending() || !tm.ev.Pending() || c.Pending() != 2 {
		t.Fatal("Stop must leave the far entry queued and disarm the timer")
	}
	tm.Set(100 * Microsecond) // earlier than the entry: re-key it
	if tm.ev.when != 100*Microsecond || tm.ev.seq != tm.seq || c.Pending() != 2 {
		t.Fatalf("entry at %v seq %d, want re-keyed to the live key", tm.ev.when, tm.ev.seq)
	}
	tm.Stop() // near entry: removed at once
	if tm.ev.Pending() || c.Pending() != 1 {
		t.Fatal("Stop must remove a near-tier entry")
	}

	tm.Set(30 * Millisecond)
	tm.Stop()
	c.RunUntil(Second) // the stale entry pops and is dropped
	if len(fired) != 0 || c.Fired() != 2 || tm.ev.Pending() {
		t.Fatalf("stopped timer fired %v (events %d)", fired, c.Fired())
	}

	tm.Set(10 * Millisecond) // entry at 1.010 s
	tm.Set(20 * Millisecond) // later key: the entry stays, pops, re-queues
	if tm.ev.when != Second+10*Millisecond {
		t.Fatalf("entry at %v, want it left at the earlier key", tm.ev.when)
	}
	c.Run()
	if fmt.Sprint(fired) != fmt.Sprint([]Time{Second + 20*Millisecond}) || c.Fired() != 4 {
		t.Fatalf("fired %v after %d events, want one fire at 1.02 s after 4", fired, c.Fired())
	}

	c.At(c.Now(), func() {}) // opens a window, so the entry lands far
	tm.Set(30 * Millisecond)
	tm.Cancel()
	if tm.Pending() || tm.ev.Pending() || c.Pending() != 1 {
		t.Fatal("Cancel must remove a far-tier entry")
	}
}

// fuzzSeeds returns random streams long enough to cross many refills.
func fuzzSeeds() [][]byte {
	r := rand.New(rand.NewSource(15))
	var seeds [][]byte
	for i := 0; i < 48; i++ {
		b := make([]byte, fuzzOpBytes*(8+r.Intn(120)))
		r.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

func FuzzClockAgainstReference(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := diffClockAgainstReference(data, false); err != nil {
			t.Fatal(err)
		}
	})
}

// A reference that breaks equal-time ties the wrong way must be caught,
// and the right one must agree on the same stream.
func TestClockReferenceCatchesFlippedTieBreak(t *testing.T) {
	op := func(kind int, act int) []byte {
		b := make([]byte, fuzzOpBytes)
		b[0], b[3] = byte(kind), byte(act)
		return b
	}
	var stream []byte
	stream = append(stream, op(opAt, actNone)...) // t = now
	stream = append(stream, op(opAt, actNone)...) // the same t: a tie
	stream = append(stream, op(opRunUntil, 0)...) // fire both
	if err := diffClockAgainstReference(stream, false); err != nil {
		t.Fatalf("correct reference disagrees: %v", err)
	}
	if err := diffClockAgainstReference(stream, true); err == nil {
		t.Fatal("flipped tie-break reference not reported")
	}
	flipped := 0
	for _, s := range fuzzSeeds() {
		if diffClockAgainstReference(s, true) != nil {
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("no seed stream tells a flipped tie-break apart")
	}
}

// BenchmarkClockSliceChurn mirrors the credit scheduler's yield storm: a
// dozen far timers (10 ms ticks, 30 ms slices) and ten near progress
// events, all owned. Every progress event stops one slice timer, sets it
// 30 ms ahead again and re-arms itself 10-100 us ahead. The steady state
// must not allocate.
func BenchmarkClockSliceChurn(b *testing.B) {
	const ticks, slices, near = 6, 6, 10
	c := NewClock()
	var tickEv [ticks]Event
	var sliceTm [slices]Timer
	var progress [near]Event
	for i := range tickEv {
		ev := &tickEv[i]
		c.Bind(ev, "tick", func() { ev.Arm(10 * Millisecond) })
		ev.Arm(Duration(i+1) * 10 * Millisecond / ticks)
	}
	for i := range sliceTm {
		tm := &sliceTm[i]
		c.BindTimer(tm, "slice", func() { tm.Set(30 * Millisecond) })
		tm.Set(30 * Millisecond)
	}
	rng, k := uint64(15), 0
	for i := range progress {
		ev := &progress[i]
		c.Bind(ev, "", func() {
			sliceTm[k].Stop()
			sliceTm[k].Set(30 * Millisecond)
			k = (k + 1) % slices
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			ev.Arm(10*Microsecond + Duration(rng%uint64(90*Microsecond)))
		})
		ev.Arm(Duration(i+1) * 10 * Microsecond)
	}
	for i := 0; i < 10000; i++ {
		c.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.Step() }); allocs != 0 {
		b.Fatalf("slice churn allocates %.1f objects per event", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkClockNearTier holds a fixed population of owned events up to
// 500 us ahead, all inside one near window at refill, at the 12-pCPU
// co-runs' typical near length and at the largest host's. Every fired
// event re-arms itself at a random depth, and every eighth also cancels
// another event from anywhere in the tier and re-arms it. The steady state
// must not allocate.
func BenchmarkClockNearTier(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("near=%d", n), func(b *testing.B) {
			c := NewClock()
			rng := uint64(16)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			delay := func() Duration { return 1 + Duration(next()%uint64(500*Microsecond)) }
			evs := make([]Event, n)
			fired := 0
			for i := range evs {
				id := i
				c.Bind(&evs[i], "", func() {
					evs[id].Arm(delay())
					if fired++; fired%8 == 0 {
						if j := int(next() % uint64(n)); j != id {
							evs[j].Cancel()
							evs[j].Arm(delay())
						}
					}
				})
				evs[i].Arm(delay())
			}
			for i := 0; i < 10000; i++ {
				c.Step()
			}
			if allocs := testing.AllocsPerRun(1000, func() { c.Step() }); allocs != 0 {
				b.Fatalf("near tier allocates %.1f objects per event", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
		})
	}
}
