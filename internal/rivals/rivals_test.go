package rivals

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/workload"
)

func host(t *testing.T, pcpus int) (*simtime.Clock, *hv.Hypervisor) {
	t.Helper()
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = pcpus
	return clock, hv.New(clock, cfg)
}

func deploy(t *testing.T, h *hv.Hypervisor, name, app string, vcpus int, seed uint64) *guest.Kernel {
	t.Helper()
	k := guest.NewKernel(h, name, vcpus, ksym.Generate(seed), guest.DefaultParams())
	if _, err := workload.New(app, k, seed); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestFixedMicroSlicedOverridesEverySlice(t *testing.T) {
	clock, h := host(t, 2)
	k := deploy(t, h, "vm", "lookbusy", 2, 1)
	f := NewFixedMicroSliced(h, 0) // default 100us
	h.Start()
	f.Start()
	k.StartAll()
	for _, v := range h.VCPUs() {
		if v.SliceOverride() != 100*simtime.Microsecond {
			t.Fatalf("override %v", v.SliceOverride())
		}
	}
	clock.RunUntil(50 * simtime.Millisecond)
	// With two hogs per pCPU... here one hog per pCPU: no contention, so
	// add nothing; just ensure short slices produce many dispatches when
	// contended on one pCPU.
	clock2, h2 := host(t, 1)
	k2 := deploy(t, h2, "a", "lookbusy", 1, 1)
	k3 := deploy(t, h2, "b", "lookbusy", 1, 2)
	f2 := NewFixedMicroSliced(h2, 100*simtime.Microsecond)
	h2.Start()
	f2.Start()
	k2.StartAll()
	k3.StartAll()
	clock2.RunUntil(50 * simtime.Millisecond)
	// 50ms at 0.1ms alternation: hundreds of preemptions (30ms slices
	// would give one).
	if h2.Counters.Value("sched.preempt") < 100 {
		t.Fatalf("preempts=%d, want short-slice churn", h2.Counters.Value("sched.preempt"))
	}
}

func TestShortSliceConfig(t *testing.T) {
	cfg := ShortSliceConfig(0)
	if cfg.NormalSlice != 100*simtime.Microsecond {
		t.Fatalf("slice %v", cfg.NormalSlice)
	}
	cfg = ShortSliceConfig(simtime.Millisecond)
	if cfg.NormalSlice != simtime.Millisecond {
		t.Fatalf("slice %v", cfg.NormalSlice)
	}
}

func TestVTurboReservesCoreAndSteersIRQRecipients(t *testing.T) {
	clock, h := host(t, 2)
	k := deploy(t, h, "io", "lookbusy", 1, 1) // runnable mixed-style vCPU
	hog := deploy(t, h, "hog", "lookbusy", 1, 2)
	k.VCPUs[0].HV().Pin(0)
	hog.VCPUs[0].HV().Pin(0)
	vt := NewVTurbo(h, 0) // default 1 core
	h.Start()
	vt.Start()
	if h.MicroCount() != 1 {
		t.Fatalf("turbo cores %d", h.MicroCount())
	}
	k.StartAll()
	hog.StartAll()
	clock.RunUntil(5 * simtime.Millisecond)
	// The io vCPU is runnable-but-preempted behind the hog; an IRQ must
	// steer it to the turbo core.
	if k.VCPUs[0].HV().State() != hv.StateRunnable {
		t.Skipf("io vCPU is %v; scheduling phase differs", k.VCPUs[0].HV().State())
	}
	h.InjectPIRQ(k.Dom, hv.VecNet, 0)
	clock.RunUntil(clock.Now() + simtime.Millisecond)
	if vt.Counters.Value("steer.ok") == 0 {
		t.Fatal("vturbo never steered the IRQ recipient")
	}
}

func TestVTRSClassifiesAndPartitions(t *testing.T) {
	clock, h := host(t, 4)
	locky := deploy(t, h, "locky", "memclone", 4, 1)
	calm := deploy(t, h, "calm", "swaptions", 4, 2)
	vt := NewVTRS(h)
	h.Start()
	vt.Start()
	locky.StartAll()
	calm.StartAll()
	clock.RunUntil(600 * simtime.Millisecond)
	lockClassed := 0
	for _, vc := range locky.VCPUs {
		if vt.classes[vc.HV()] == VTRSLockIntensive {
			lockClassed++
			if vc.HV().SliceOverride() != vt.LockSlice {
				t.Fatalf("lock-class vCPU has slice %v", vc.HV().SliceOverride())
			}
		}
	}
	if lockClassed == 0 {
		t.Fatal("no memclone vCPU classified lock-intensive")
	}
	for _, vc := range calm.VCPUs {
		if vt.classes[vc.HV()] != VTRSDefault {
			t.Fatalf("swaptions vCPU classified %v", vt.classes[vc.HV()])
		}
	}
	if vt.Counters.Value("reclassify") == 0 {
		t.Fatal("no reclassifications recorded")
	}
}

func TestVTRSSingleClassUnpins(t *testing.T) {
	clock, h := host(t, 2)
	k := deploy(t, h, "calm", "swaptions", 2, 1)
	vt := NewVTRS(h)
	h.Start()
	vt.Start()
	k.StartAll()
	clock.RunUntil(300 * simtime.Millisecond)
	for _, vc := range k.VCPUs {
		if vt.classes[vc.HV()] != VTRSDefault {
			t.Fatalf("class %v", vt.classes[vc.HV()])
		}
		if vc.HV().SliceOverride() != 0 {
			t.Fatalf("default class has slice override %v", vc.HV().SliceOverride())
		}
	}
}

func TestVTRSClassStrings(t *testing.T) {
	for _, c := range []VTRSClass{VTRSDefault, VTRSLockIntensive, VTRSIOIntensive} {
		if c.String() == "" {
			t.Fatal("empty class string")
		}
	}
}

func TestCoSchedGangDispatch(t *testing.T) {
	clock, h := host(t, 4)
	a := deploy(t, h, "a", "lookbusy", 4, 1)
	b := deploy(t, h, "b", "lookbusy", 4, 2)
	cs := NewCoSched(h, 0)
	if cs.Period != 30*simtime.Millisecond {
		t.Fatal("defaults")
	}
	h.Start()
	cs.Start()
	a.StartAll()
	b.StartAll()
	clock.RunUntil(200 * simtime.Millisecond)
	if h.Counters.Value("sched.force_preempt") == 0 {
		t.Fatal("gang rotation never forced a dispatch")
	}
	// Both domains progress (rotation is fair).
	for _, k := range []string{"a", "b"} {
		_ = k
	}
	var ranA, ranB simtime.Duration
	for _, v := range a.Dom.VCPUs {
		ranA += v.RanTotal()
	}
	for _, v := range b.Dom.VCPUs {
		ranB += v.RanTotal()
	}
	if ranA == 0 || ranB == 0 {
		t.Fatalf("ranA=%v ranB=%v", ranA, ranB)
	}
	ratio := float64(ranA) / float64(ranB)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("gang rotation unfair: %v vs %v", ranA, ranB)
	}
}

func TestCoSchedReducesTLBStalls(t *testing.T) {
	run := func(gang bool) int64 {
		clock, h := host(t, 12)
		dedup := deploy(t, h, "dedup", "dedup", 12, 1)
		deploy(t, h, "swaptions", "swaptions", 12, 2)
		var cs *CoSched
		if gang {
			cs = NewCoSched(h, 0)
		}
		h.Start()
		if cs != nil {
			cs.Start()
		}
		for _, v := range h.VCPUs() {
			h.Wake(v, false)
		}
		clock.RunUntil(simtime.Second)
		return int64(dedup.TLBStat.Mean())
	}
	base := run(false)
	gang := run(true)
	if gang >= base {
		t.Fatalf("co-scheduling did not reduce TLB sync latency: %dns -> %dns", base, gang)
	}
}
