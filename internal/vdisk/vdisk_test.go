package vdisk

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/workload"
)

func TestServiceCompletesAndCounts(t *testing.T) {
	clock := simtime.NewClock()
	d := New(clock, 1)
	done := 0
	d.Submit(4096, false, func() { done++ })
	d.Submit(4096, true, func() { done++ })
	clock.Run()
	if done != 2 || d.Completed != 2 || d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("done=%d completed=%d r=%d w=%d", done, d.Completed, d.Reads, d.Writes)
	}
	if d.Latency.Count() != 2 || d.Latency.Min() <= 0 {
		t.Fatalf("latency %s", d.Latency)
	}
	if d.inflight != 0 || len(d.queue) != 0 {
		t.Fatal("device not drained")
	}
}

func TestQueueDepthBound(t *testing.T) {
	clock := simtime.NewClock()
	d := New(clock, 2)
	d.Depth = 2
	for i := 0; i < 10; i++ {
		d.Submit(1<<20, false, nil)
	}
	if d.inflight != 2 || len(d.queue) != 8 {
		t.Fatalf("inflight=%d queued=%d", d.inflight, len(d.queue))
	}
	clock.Run()
	if d.Completed != 10 {
		t.Fatalf("completed=%d", d.Completed)
	}
}

func TestQueueingInflatesLatency(t *testing.T) {
	// Saturating a depth-1 device makes later requests queue: the latency
	// histogram's max must far exceed its min.
	clock := simtime.NewClock()
	d := New(clock, 3)
	d.Depth = 1
	for i := 0; i < 20; i++ {
		d.Submit(1<<20, false, nil)
	}
	clock.Run()
	if d.Latency.Max() < 5*d.Latency.Min() {
		t.Fatalf("no queueing visible: min=%d max=%d", d.Latency.Min(), d.Latency.Max())
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	clock := simtime.NewClock()
	d := New(clock, 4)
	d.SeekMean = 1 // effectively transfer-only
	var small, large simtime.Time
	d.Submit(1<<20, false, func() { small = clock.Now() })
	clock.Run()
	start := clock.Now()
	d.Submit(8<<20, false, func() { large = clock.Now() - start })
	clock.Run()
	if large < 6*small {
		t.Fatalf("8MiB (%v) not ~8x 1MiB (%v)", large, small)
	}
}

func TestZeroByteRequestClamped(t *testing.T) {
	clock := simtime.NewClock()
	d := New(clock, 5)
	ok := false
	d.Submit(0, false, func() { ok = true })
	clock.Run()
	if !ok {
		t.Fatal("zero-byte request never completed")
	}
}

func TestDeterministicService(t *testing.T) {
	run := func() int64 {
		clock := simtime.NewClock()
		d := New(clock, 9)
		for i := 0; i < 50; i++ {
			d.Submit(64<<10, i%2 == 0, nil)
		}
		clock.Run()
		return int64(clock.Now())
	}
	if run() != run() {
		t.Fatal("service times nondeterministic")
	}
}

// TestGuestDiskPathEndToEnd drives OpDisk through the guest and verifies
// the completion IRQ wakes the thread.
func TestGuestDiskPathEndToEnd(t *testing.T) {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 1
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "vm", 1, ksym.Generate(1), guest.DefaultParams())
	d := New(clock, 7)
	k.AttachDisk(d)
	done := 0
	th := k.NewThread(0, "reader", guest.ProgramFunc(func(now simtime.Time) guest.Op {
		if done >= 10 {
			return guest.Op{Kind: guest.OpExit}
		}
		done++
		return guest.Op{Kind: guest.OpDisk, Bytes: 16 << 10}
	}))
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Second)
	if th.State() != guest.ThreadDone {
		t.Fatalf("thread state %v", th.State())
	}
	if d.Completed != 10 {
		t.Fatalf("completed=%d", d.Completed)
	}
	// Idle vCPU: app-visible latency ≈ device latency (sub-ms).
	if d.Latency.Max() > int64(simtime.Millisecond) {
		t.Fatalf("device latency %dns on idle host", d.Latency.Max())
	}
}

// TestMixedDiskVCPUSuffersAndIsRescued reproduces the Figure-9 shape on
// the storage path: a disk-bound thread sharing its vCPU with a hog, the
// vCPU sharing a pCPU with a hog VM.
func TestMixedDiskVCPUSuffersAndIsRescued(t *testing.T) {
	run := func(micro bool) float64 {
		clock := simtime.NewClock()
		cfg := hv.DefaultConfig()
		cfg.PCPUs = 2
		h := hv.New(clock, cfg)
		k := guest.NewKernel(h, "vm1", 1, ksym.Generate(1), guest.DefaultParams())
		d := New(clock, 7)
		k.AttachDisk(d)
		app := workload.Empty("filer", k)
		ios := uint64(0)
		k.NewThread(0, "filer", guest.ProgramFunc(func(now simtime.Time) guest.Op {
			ios++
			return guest.Op{Kind: guest.OpDisk, Bytes: 16 << 10}
		}))
		workload.LookbusyThread(app, 0)
		hog := guest.NewKernel(h, "vm2", 1, ksym.Generate(2), guest.DefaultParams())
		if _, err := workload.New("lookbusy", hog, 9); err != nil {
			t.Fatal(err)
		}
		k.VCPUs[0].HV().Pin(0)
		hog.VCPUs[0].HV().Pin(0)
		cc := core.DefaultConfig()
		if micro {
			cc = core.StaticConfig(1)
		} else {
			cc.Mode = core.ModeOff
		}
		ctrl, err := core.Attach(h, cc)
		if err != nil {
			t.Fatal(err)
		}
		h.Start()
		ctrl.Start()
		k.StartAll()
		hog.StartAll()
		clock.RunUntil(2 * simtime.Second)
		return float64(d.Completed) / 2 // IOPS
	}
	base := run(false)
	fixed := run(true)
	if base <= 0 {
		t.Fatal("no baseline I/O")
	}
	// Closed-loop depth-1 I/O on a 50%-duty vCPU: the baseline already
	// achieves roughly half the solo rate, so the rescue's headroom is
	// bounded; a >=25% recovery demonstrates the relay-path acceleration.
	if fixed < 1.25*base {
		t.Fatalf("micro-slicing did not rescue disk I/O: %.0f -> %.0f IOPS", base, fixed)
	}
}
