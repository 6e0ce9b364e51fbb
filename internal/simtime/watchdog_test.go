package simtime

import (
	"fmt"
	"strconv"
	"testing"
)

func TestWatchdogFiresOnLivelock(t *testing.T) {
	c := NewClock()
	var info *WatchdogInfo
	c.SetWatchdog(100, func(i WatchdogInfo) {
		info = &i
		c.Stop()
	})
	// Classic livelock: a zero-delay event rescheduling itself keeps the
	// loop busy without the clock ever advancing.
	var spin Event
	c.Bind(&spin, kindSpin, func() { spin.Arm(0) })
	spin.Arm(0)
	c.RunUntil(Second)
	if info == nil {
		t.Fatal("watchdog never fired on a livelocked loop")
	}
	if !c.wdFired {
		t.Fatal("wdFired false after trigger")
	}
	if info.Now != 0 {
		t.Fatalf("livelock detected at t=%v, want 0", info.Now)
	}
	if info.SameTimeEvents < 100 {
		t.Fatalf("fired after only %d same-time events", info.SameTimeEvents)
	}
	found := false
	for _, l := range info.RecentLabels {
		if l == "spin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostic labels %v miss the livelocked event", info.RecentLabels)
	}
}

var kindSpin = NewKind("spin")

// ringKinds are the kinds TestWatchdogRecentLabelsExact's events cycle
// through. Seventeen does not divide the ring's sixteen slots, so a ring
// read from the wrong slot names the wrong kinds.
var ringKinds = func() (ks [17]Kind) {
	for i := range ks {
		ks[i] = NewKind("r" + strconv.Itoa(i))
	}
	return ks
}()

// RecentLabels holds exactly the names of the last 16 kinds in firing
// order, both when the ring is written only near the limit (1000) and when
// every event writes it (a limit below 16, where the ring reaches back past
// the same-time run to events at earlier times).
func TestWatchdogRecentLabelsExact(t *testing.T) {
	for _, limit := range []uint64{1000, 5} {
		c := NewClock()
		var fired []string
		var info *WatchdogInfo
		c.SetWatchdog(limit, func(i WatchdogInfo) {
			info = &i
			c.Stop()
		})
		// bind returns an owned event that logs its kind's name when it
		// fires, then runs then.
		bind := func(k Kind, then func()) *Event {
			ev := new(Event)
			c.Bind(ev, k, func() {
				fired = append(fired, ev.Kind().String())
				then()
			})
			return ev
		}
		// Twenty events at distinct times, then a same-time burst that
		// stops short of the limit, then a livelock at a later time.
		for i := 0; i < 20; i++ {
			bind(ringKinds[i%17], func() {}).Arm(Time(i + 1))
		}
		for i := uint64(0); i+1 < limit; i++ {
			bind(ringKinds[(i+5)%17], func() {}).Arm(50)
		}
		// The livelock re-arms one owned event, each time under the
		// next kind.
		n := 0
		var spin *Event
		spin = bind(ringKinds[0], func() {
			n++
			spin.ArmKind(0, ringKinds[n%17])
		})
		spin.Arm(100)
		c.RunUntil(Second)
		if info == nil {
			t.Fatalf("limit %d: watchdog never fired", limit)
		}
		if info.Now != 100 || info.SameTimeEvents != limit {
			t.Fatalf("limit %d: fired at %v after %d same-time events", limit, info.Now, info.SameTimeEvents)
		}
		want := fired[len(fired)-wdRingSize:]
		if fmt.Sprint(info.RecentLabels) != fmt.Sprint(want) {
			t.Fatalf("limit %d: RecentLabels %v, want %v", limit, info.RecentLabels, want)
		}
	}
}

func TestWatchdogToleratesAdvancingClock(t *testing.T) {
	c := NewClock()
	fired := false
	c.SetWatchdog(100, func(WatchdogInfo) { fired = true })
	// 10k events, each advancing the clock: never a livelock.
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10_000 {
			c.After(Microsecond, tick)
		}
	}
	c.After(Microsecond, tick)
	c.RunUntil(Second)
	if fired {
		t.Fatal("watchdog fired on an advancing clock")
	}
	if n != 10_000 {
		t.Fatalf("ran %d events", n)
	}
}

func TestWatchdogToleratesBurstsBelowLimit(t *testing.T) {
	c := NewClock()
	fired := false
	c.SetWatchdog(1000, func(WatchdogInfo) { fired = true })
	// 500 events at the same instant (below the limit), then progress.
	for i := 0; i < 500; i++ {
		c.After(Millisecond, func() {})
	}
	c.After(2*Millisecond, func() {})
	c.RunUntil(Second)
	if fired {
		t.Fatal("watchdog fired on a burst below its limit")
	}
}
