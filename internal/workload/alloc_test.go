package workload

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/guest"
)

// cyclePrograms deploys app into a fresh 12-vCPU kernel and returns its
// threads' programs.
func cyclePrograms(t *testing.T, app string, seed uint64) []*cycleProg {
	t.Helper()
	_, _, k := newVM(t, 12, 12)
	mustNew(t, app, k, seed)
	var progs []*cycleProg
	for _, th := range k.Threads() {
		p, ok := th.Program().(*cycleProg)
		if !ok {
			t.Fatalf("%s: thread %s runs a %T, not a cycleProg", app, th.Name, th.Program())
		}
		progs = append(progs, p)
	}
	return progs
}

func lockName(op guest.Op) string {
	if op.Lock == nil {
		return ""
	}
	return op.Lock.Name()
}

// TestCycleProgReuseMatchesFresh checks the reused op buffer against the
// simple reference, a fresh slice per iteration: for every app, every
// thread emits the same op sequence, so the rng draws happen in the same
// order.
func TestCycleProgReuseMatchesFresh(t *testing.T) {
	for _, app := range Catalog() {
		reused, fresh := cyclePrograms(t, app, 42), cyclePrograms(t, app, 42)
		for i := range reused {
			for n := 0; n < 2000; n++ {
				fresh[i].buf = nil // the reference: build into a new slice
				a, b := reused[i].Next(0), fresh[i].Next(0)
				if a.Kind != b.Kind || a.Dur != b.Dur || a.Fn != b.Fn || lockName(a) != lockName(b) ||
					a.Bytes != b.Bytes || a.Write != b.Write {
					t.Fatalf("%s thread %d op %d: reused buffer gives %+v, fresh slice %+v", app, i, n, a, b)
				}
			}
			if reused[i].app.units != fresh[i].app.units {
				t.Fatalf("%s: units %d vs %d", app, reused[i].app.units, fresh[i].app.units)
			}
		}
	}
}

// TestCycleProgAllocFree: once every thread's buffer has grown to its
// longest iteration, gmake and exim programs allocate nothing per op.
func TestCycleProgAllocFree(t *testing.T) {
	for _, app := range []string{"gmake", "exim"} {
		progs := cyclePrograms(t, app, 11)
		next := func() {
			for _, p := range progs {
				p.Next(0)
			}
		}
		for i := 0; i < 5000; i++ {
			next()
		}
		if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
			t.Errorf("%s: %v allocs per round of %d Next calls, want 0", app, allocs, len(progs))
		}
	}
}
