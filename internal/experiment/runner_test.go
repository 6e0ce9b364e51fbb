package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
)

// twoVMSetup is the determinism-regression scenario: two VMs, detection on,
// fixed seeds.
func twoVMSetup() Setup {
	return corunSetup("exim", core.StaticConfig(1), quick)
}

// TestRunFullyDeterministic runs the identical two-VM Setup twice with the
// same seed and requires the *entire* Result — units, yield breakdowns,
// counter snapshots, lock/TLB histograms, symbol hits — to be identical.
func TestRunFullyDeterministic(t *testing.T) {
	a, err := Run(twoVMSetup())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(twoVMSetup())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeded runs diverged:\nrun1: HV=%v Core=%v\nrun2: HV=%v Core=%v",
			a.HV, a.Core, b.HV, b.Core)
	}
}

// TestRunAllMatchesSerial is the tentpole's equivalence check: the same grid
// run serially and under the parallel worker pool must produce bit-for-bit
// identical Results in the same order.
func TestRunAllMatchesSerial(t *testing.T) {
	grid := []Setup{
		twoVMSetup(),
		soloSetup("gmake", quick),
		corunSetup("dedup", offConfig(), quick),
		corunSetup("exim", core.DefaultConfig(), quick),
	}
	serial := make([]*Result, len(grid))
	for i, s := range grid {
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	old := Parallelism()
	SetParallelism(4)
	defer SetParallelism(old)
	par, err := RunAll(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("RunAll returned %d results, want %d", len(par), len(serial))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Fatalf("setup %d: serial and RunAll results differ", i)
		}
	}
}

// TestSharedSymbolsConcurrentRuns runs the two-VM cell from four
// goroutines at once, so the cells race to generate, format and parse the
// same symbol tables (run it under -race), and requires every result to
// equal a serial run's.
func TestSharedSymbolsConcurrentRuns(t *testing.T) {
	const workers = 4
	par := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			par[i], errs[i] = Run(twoVMSetup())
		}()
	}
	wg.Wait()
	serial, err := Run(twoVMSetup())
	if err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(par[i], serial) {
			t.Fatalf("goroutine %d: result differs from the serial run", i)
		}
	}
}

func TestRunAllPropagatesLowestIndexError(t *testing.T) {
	grid := []Setup{
		soloSetup("gmake", quick),
		soloSetup("gmake", quick),
		soloSetup("gmake", quick),
	}
	grid[1].VMs[0].App = "bogus-b"
	grid[2].VMs[0].App = "bogus-c"
	SetParallelism(3)
	defer SetParallelism(0)
	res, err := RunAll(grid)
	if err == nil {
		t.Fatal("RunAll swallowed the setup error")
	}
	if res != nil {
		t.Fatal("RunAll returned results alongside an error")
	}
	// The lowest failing index (1, app bogus-b) must win deterministically.
	if want := "bogus-b"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the lowest-index failure %q", err, want)
	}
}

func TestParallelDoCoversAllIndicesOnce(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int64
	SetParallelism(8)
	defer SetParallelism(0)
	if err := parallelDo(n, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestParallelDoSerialFailFast(t *testing.T) {
	SetParallelism(1)
	defer SetParallelism(0)
	ran := 0
	err := parallelDo(10, func(i int) error {
		ran++
		if i == 3 {
			return fmt.Errorf("boom at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom at 3" {
		t.Fatalf("err=%v", err)
	}
	if ran != 4 {
		t.Fatalf("serial mode ran %d tasks after failure, want 4", ran)
	}
}

func TestSetParallelismClampsNegative(t *testing.T) {
	SetParallelism(-5)
	defer SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatalf("Parallelism()=%d after negative set", Parallelism())
	}
}
