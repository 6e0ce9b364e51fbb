package check

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/hv"
)

// refPick is plain credit1's choice of the next vCPU for the idle pCPU p,
// written as O(n) scans over every runqueue of p's pool with no masks, no
// parking and no shortcut. requeued, when non-nil, is a yielder that is on
// no runqueue and counts as queued at the tail of its class on p.
//
// The rule: among the vCPUs allowed on p, the best priority wins. On a tie
// p's own queue beats its siblings (stealing needs strictly better work),
// a sibling earlier in pool order beats a later one, and within one queue
// the earlier position wins; the requeued yielder comes after everything
// of its class on p. A pool that never steals looks only at p's queue.
func refPick(p *hv.PCPU, requeued *hv.VCPU) *hv.VCPU {
	var best *hv.VCPU
	better := func(v *hv.VCPU) bool {
		return mayRun(v, p) && (best == nil || v.Priority() < best.Priority())
	}
	for _, v := range p.Runqueue() {
		if better(v) {
			best = v
		}
	}
	if requeued != nil && better(requeued) {
		best = requeued
	}
	pool := p.Pool()
	if pool.NoSteal {
		return best
	}
	for _, q := range pool.PCPUs() {
		if q == p {
			continue
		}
		for _, v := range q.Runqueue() {
			if better(v) {
				best = v
			}
		}
	}
	return best
}

// mayRun is credit1's placement rule: a vCPU runs only in its current
// pool, and a pin binds it only while it is in its home pool.
func mayRun(v *hv.VCPU, p *hv.PCPU) bool {
	if v.Pool() != p.Pool() {
		return false
	}
	pin := v.PinnedTo()
	return v.OnMicro() || pin < 0 || pin == p.ID
}

// mutant stands in for a broken scheduler in the teeth tests: given a
// choice as hv.Hypervisor.CheckPick reports it, it returns the choice the
// broken code would have made in the same state. A lockstep comparison
// stops at the first divergent choice, so swapping the reported choice is
// the mutant's run up to the point where it is caught.
type mutant func(h *hv.Hypervisor, p *hv.PCPU, requeued, got *hv.VCPU) *hv.VCPU

// lockstep checks every scheduling choice of one run against refPick.
type lockstep struct {
	h      *hv.Hypervisor
	mutant mutant
	err    error
}

func (l *lockstep) check(p *hv.PCPU, requeued, got *hv.VCPU) {
	if l.mutant != nil {
		got = l.mutant(l.h, p, requeued, got)
	}
	if l.err != nil || (requeued != nil && got == nil) {
		// After the first mismatch the run no longer matters; a declined
		// re-dispatch reports its pick later, from the regular path.
		return
	}
	if want := refPick(p, requeued); got != want {
		via := "pick"
		if requeued != nil {
			via = fmt.Sprintf("yield re-dispatch of %v", requeued)
		}
		l.err = fmt.Errorf("lockstep: t=%v p%d %s chose %v, reference credit1 picks %v (runqueues: %s)",
			l.h.Clock.Now(), p.ID, via, got, want, runqueues(p.Pool()))
	}
}

// runqueues renders a pool's runqueues for a mismatch report.
func runqueues(pool *hv.Pool) string {
	var b strings.Builder
	for _, q := range pool.PCPUs() {
		fmt.Fprintf(&b, " p%d%v", q.ID, q.Runqueue())
	}
	return b.String()
}

// runLockstep runs sc once with refPick checking every choice in lockstep.
func runLockstep(sc Scenario, m mutant) error {
	l := &lockstep{mutant: m}
	s := sc.ToSetup()
	s.Instrument = func(h *hv.Hypervisor) {
		l.h = h
		h.CheckPick = l.check
	}
	s.PostCheck = func(*experiment.PostRun) error { return l.err }
	_, err := experiment.Run(s)
	return err
}

// lockstepSuite runs count generated scenarios through runLockstep with the
// suite's generate→check→shrink→fixture loop.
func lockstepSuite(seed uint64, count int, m mutant) (*Report, error) {
	var c Checker
	check := func(sc Scenario) error { return runLockstep(sc, m) }
	return c.runSuite(Options{
		Seed:       seed,
		Count:      count,
		FixtureDir: os.Getenv("CHECK_FIXTURE_DIR"),
	}, Generate, check, func(sc Scenario) bool { return check(sc) != nil })
}

// TestPickerLockstep runs the reference credit1 picker in lockstep with
// pickNext and Yield's in-place re-dispatch over 200 generated scenarios
// (LOCKSTEP_COUNT/CHECK_SEED override): every choice must match.
func TestPickerLockstep(t *testing.T) {
	count := envInt("LOCKSTEP_COUNT", 200)
	rep, err := lockstepSuite(envUint("CHECK_SEED", 1), count, nil)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if rep.Checked < count && len(rep.Failures) == 0 {
		t.Fatalf("suite stopped early: %d/%d scenarios", rep.Checked, count)
	}
	for i, f := range rep.Failures {
		t.Errorf("seed %d: %s %s\nshrunk repro: %+v", f.Seed, f.Err, rep.FixturePaths[i], f.Shrunk)
	}
}

// TestPickerLockstepCatchesFlippedTieBreak: a picker whose steal test takes
// a sibling's work on equal priority (<= for <) must be caught and shrunk
// to a repro of at most two domains.
func TestPickerLockstepCatchesFlippedTieBreak(t *testing.T) {
	flipped := func(h *hv.Hypervisor, p *hv.PCPU, requeued, got *hv.VCPU) *hv.VCPU {
		if requeued != nil {
			return got
		}
		var best *hv.VCPU
		for _, v := range p.Runqueue() {
			if mayRun(v, p) {
				best = v
				break
			}
		}
		if p.Pool().NoSteal {
			return best
		}
		for _, q := range p.Pool().PCPUs() {
			if q == p {
				continue
			}
			for _, v := range q.Runqueue() {
				if mayRun(v, p) && (best == nil || v.Priority() <= best.Priority()) {
					best = v
					break
				}
			}
		}
		return best
	}
	expectCaught(t, flipped, "pick chose")
}

// TestPickerLockstepCatchesEqualHeadRedispatch: a yield shortcut that also
// fires when p's runqueue head has the yielder's own priority (<= for <)
// skips the queued vCPU the requeue would have put first, and must be
// caught.
func TestPickerLockstepCatchesEqualHeadRedispatch(t *testing.T) {
	loose := func(h *hv.Hypervisor, p *hv.PCPU, v, got *hv.VCPU) *hv.VCPU {
		if v == nil || got != nil || h.Hooks.OnYield != nil || !mayRun(v, p) {
			return got
		}
		pool := p.Pool()
		if v.OnMicro() && pool.ReturnHome {
			return got
		}
		if rq := p.Runqueue(); len(rq) > 0 && rq[0].Priority() < v.Priority() {
			return got
		}
		if !pool.NoSteal {
			for _, q := range pool.PCPUs() {
				if rq := q.Runqueue(); q != p && len(rq) > 0 && rq[0].Priority() < v.Priority() {
					return got
				}
			}
		}
		return v
	}
	expectCaught(t, loose, "yield re-dispatch")
}

// expectCaught runs a small lockstep slice under the mutant and requires a
// failure that names the right choice and shrinks to at most two domains.
func expectCaught(t *testing.T, m mutant, what string) {
	t.Helper()
	rep, err := lockstepSuite(1, 50, m)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if len(rep.Failures) == 0 {
		t.Fatalf("mutant survived %d scenarios", rep.Checked)
	}
	f := rep.Failures[0]
	if !strings.Contains(f.Err, what) {
		t.Fatalf("failure does not name the %s: %s", what, f.Err)
	}
	if len(f.Shrunk.VMs) > 2 {
		t.Fatalf("shrunk repro still has %d domains, want <= 2", len(f.Shrunk.VMs))
	}
	if runLockstep(f.Shrunk, m) == nil {
		t.Fatal("shrunk scenario no longer reproduces the failure")
	}
	if runLockstep(f.Shrunk, nil) != nil {
		t.Fatal("shrunk scenario fails without the mutant")
	}
}
