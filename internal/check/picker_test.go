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
	yield  *hookedYield // the innermost OnYield hook in progress, or nil
}

// hookedYield models a yield while its OnYield hook runs. A yielder that
// stays on its pCPU in its home pool is on no runqueue when the hook
// starts (deferred). The reference is credit1's requeue-then-hook order:
// a deferred yielder must be requeued just before the hook's first
// migration, reported to CheckPick as a declined re-dispatch, and a hook
// that migrates nothing leaves the choice to be reported after it returns.
type hookedYield struct {
	v        *hv.VCPU
	deferred bool
	settled  bool   // the deferred requeue was reported inside the hook
	migrated uint64 // hv's migrate.micro count when the hook began
}

// wrapYieldHook runs hook under the hookedYield model.
func (l *lockstep) wrapYieldHook(hook func(*hv.VCPU, hv.YieldReason)) func(*hv.VCPU, hv.YieldReason) {
	migrations := l.h.Counters.Counter("migrate.micro")
	return func(v *hv.VCPU, reason hv.YieldReason) {
		y := &hookedYield{
			v:        v,
			deferred: v.State() == hv.StateRunnable && !queued(v),
			migrated: migrations.Value(),
		}
		outer := l.yield
		l.yield = y
		hook(v, reason)
		l.yield = outer
		if l.err == nil && y.deferred && !y.settled && migrations.Value() != y.migrated {
			l.err = fmt.Errorf("lockstep: t=%v OnYield hook of %v migrated work while the yielder was on no runqueue",
				l.h.Clock.Now(), v)
		}
	}
}

// queued reports whether v is on a runqueue of its pool.
func queued(v *hv.VCPU) bool {
	for _, p := range v.Pool().PCPUs() {
		for _, w := range p.Runqueue() {
			if w == v {
				return true
			}
		}
	}
	return false
}

func (l *lockstep) check(p *hv.PCPU, requeued, got *hv.VCPU) {
	if l.mutant != nil {
		got = l.mutant(l.h, p, requeued, got)
	}
	if l.err != nil {
		return // after the first mismatch the run no longer matters
	}
	if y := l.yield; y != nil && requeued == y.v {
		// Only the deferred requeue reports from inside the hook, once,
		// before the hook's first migration takes effect.
		switch {
		case !y.deferred || y.settled:
			l.err = fmt.Errorf("lockstep: t=%v p%d reported the yield of %v again inside its OnYield hook",
				l.h.Clock.Now(), p.ID, requeued)
		case got != nil:
			l.err = fmt.Errorf("lockstep: t=%v p%d yield re-dispatch of %v chosen inside its OnYield hook, which is migrating work (runqueues: %s)",
				l.h.Clock.Now(), p.ID, requeued, runqueues(p.Pool()))
		}
		y.settled = true
		return
	}
	if requeued != nil && got == nil {
		return // a declined re-dispatch reports its pick later, from the regular path
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
	s, err := sc.ToSetup()
	if err != nil {
		return err
	}
	s.Instrument = func(h *hv.Hypervisor) {
		l.h = h
		h.CheckPick = l.check
		if hook := h.Hooks.OnYield; hook != nil {
			h.Hooks.OnYield = l.wrapYieldHook(hook)
		}
	}
	s.PostCheck = func(*experiment.PostRun) error { return l.err }
	_, err = experiment.Run(s)
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

// redispatchMutant is Yield's in-place re-dispatch test transcribed with
// the head comparison as a parameter: with strict it is redispatchable
// itself, without it an equal-priority head no longer blocks the shortcut.
// It replaces a declined yield choice with the yielder wherever its test
// passes, and leaves every other choice alone.
func redispatchMutant(strict bool) mutant {
	blocks := func(head, v *hv.VCPU) bool {
		return head.Priority() < v.Priority() || (strict && head.Priority() == v.Priority())
	}
	return func(h *hv.Hypervisor, p *hv.PCPU, v, got *hv.VCPU) *hv.VCPU {
		if v == nil || got != nil || !mayRun(v, p) {
			return got
		}
		pool := p.Pool()
		if v.OnMicro() && pool.ReturnHome {
			return got
		}
		if rq := p.Runqueue(); len(rq) > 0 && blocks(rq[0], v) {
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
}

// TestPickerLockstepCatchesEqualHeadRedispatch: a yield shortcut that also
// fires when p's runqueue head has the yielder's own priority (<= for <)
// skips the queued vCPU the requeue would have put first, and must be
// caught.
func TestPickerLockstepCatchesEqualHeadRedispatch(t *testing.T) {
	expectCaught(t, redispatchMutant(false), "yield re-dispatch")
}

// TestPickerLockstepCatchesRedispatchBeforeHook: a Yield that decides the
// in-place re-dispatch before its OnYield hook runs keeps the yielder off
// the runqueues even when the hook then migrates work. The choice it makes
// is the one the correct shortcut makes where no hook moves anything, so
// the mutant is the strict test applied at the deferred requeue's report,
// and only the hook model can catch it.
func TestPickerLockstepCatchesRedispatchBeforeHook(t *testing.T) {
	expectCaught(t, redispatchMutant(true), "inside its OnYield hook")
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
