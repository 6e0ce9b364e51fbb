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
	var spin func()
	spin = func() { c.AfterLabeled(0, "spin", spin) }
	c.AfterLabeled(0, "spin", spin)
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

// RecentLabels holds exactly the last 16 labels in firing order, both when
// the ring is written only near the limit (1000) and when every event
// writes it (a limit below 16, where the ring reaches back past the
// same-time run to events at earlier times).
func TestWatchdogRecentLabelsExact(t *testing.T) {
	for _, limit := range []uint64{1000, 5} {
		c := NewClock()
		var fired []string
		var info *WatchdogInfo
		c.SetWatchdog(limit, func(i WatchdogInfo) {
			info = &i
			c.Stop()
		})
		label := func(l string) (string, func()) { return l, func() { fired = append(fired, l) } }
		// Twenty events at distinct times, then a same-time burst that
		// stops short of the limit, then a livelock at a later time.
		for i := 0; i < 20; i++ {
			l, fn := label("p" + strconv.Itoa(i))
			c.AtLabeled(Time(i+1), l, fn)
		}
		for i := uint64(0); i+1 < limit; i++ {
			l, fn := label("b" + strconv.FormatUint(i, 10))
			c.AtLabeled(50, l, fn)
		}
		n := 0
		var spin func()
		spin = func() {
			fired = append(fired, "s"+strconv.Itoa(n))
			n++
			c.AfterLabeled(0, "s"+strconv.Itoa(n), spin)
		}
		c.AtLabeled(100, "s0", spin)
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

func TestDelayJitterPerturbsLabeledEvents(t *testing.T) {
	c := NewClock()
	c.SetDelayJitter(func(label string, d Duration) Duration {
		if label == "tick" {
			return d + Millisecond
		}
		return d
	})
	var tickAt, otherAt Time
	c.AfterLabeled(10*Millisecond, "tick", func() { tickAt = c.Now() })
	c.AfterLabeled(10*Millisecond, "other", func() { otherAt = c.Now() })
	c.RunUntil(Second)
	if tickAt != Time(11*Millisecond) {
		t.Fatalf("jittered tick at %v, want 11ms", tickAt)
	}
	if otherAt != Time(10*Millisecond) {
		t.Fatalf("unlabeled event moved to %v", otherAt)
	}
}

func TestDelayJitterClampsNegative(t *testing.T) {
	c := NewClock()
	c.SetDelayJitter(func(label string, d Duration) Duration { return d - Second })
	fired := false
	c.After(Millisecond, func() { fired = true })
	c.RunUntil(Second)
	if !fired {
		t.Fatal("negatively jittered event never fired")
	}
}
