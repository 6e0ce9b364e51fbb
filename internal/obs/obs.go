// Package obs is the simulator's observability layer: per-vCPU scheduling
// state accounting, span-based latency attribution, a Chrome-trace-event
// (Perfetto-loadable) timeline exporter, and a fault-triggered flight
// recorder.
//
// The layer is strictly passive — it never mutates scheduler state, so an
// instrumented run schedules the exact same event sequence as an
// uninstrumented one — and it is engineered for the same hot-path budget as
// internal/simtime: after a short warm-up every Transition/Begin/End call is
// allocation-free (fixed state matrices, a free-listed open-span table and
// pre-constructed metrics.Histograms), and a disabled observer costs one nil
// pointer check per hook site in internal/hv.
//
// Dependency direction: obs sits below hv (hv imports obs, never the
// reverse), importing only trace, metrics and simtime, so every layer of the
// simulator — hypervisor, guest, vnet, vdisk — can feed it.
package obs

import (
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

const (
	// spanSubBuckets is the per-octave resolution of the span latency
	// histograms, the resolution used everywhere else.
	spanSubBuckets = 8
	// FlightDepth bounds the trace-ring tail captured per flight dump.
	FlightDepth = 64
	// maxFlights caps the number of flight dumps retained (and written)
	// per run, so a violation storm cannot fill the disk.
	maxFlights = 4
)

// Config selects where, and under which label, the observer writes flight
// dumps. The zero value is a fully functional in-memory configuration.
type Config struct {
	// FlightDir, when non-empty, writes each flight dump as a
	// self-contained JSON file flight-<label>-<seq>.json under this
	// directory (created if missing). Empty keeps dumps in memory only.
	FlightDir string
	// Label tags flight-dump filenames and summaries (default "run").
	Label string
}

func (c Config) withDefaults() Config {
	if c.Label == "" {
		c.Label = "run"
	}
	return c
}

// State is a vCPU scheduling state as the accountant sees it. It refines the
// hypervisor's three-state machine with the boosted sub-state of Runnable,
// because "waiting with BOOST" and "waiting at normal priority" are the two
// ends of the virtual-time-discontinuity spectrum the paper measures.
type State uint8

// Accounting states.
const (
	StateBlocked  State = iota // halted, waiting for an event
	StateRunnable              // on a runqueue at UNDER/OVER priority
	StateBoosted               // on a runqueue at BOOST priority
	StateRunning               // executing on a pCPU
	numStates
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateBlocked:
		return "blocked"
	case StateRunnable:
		return "runnable"
	case StateBoosted:
		return "boosted"
	case StateRunning:
		return "running"
	default:
		return "state(?)"
	}
}

// pool indices of the residency matrix.
const (
	poolNormal = 0
	poolMicro  = 1
)

// vcpuAcct is one vCPU's accounting record: a [pool][state] residency matrix
// plus the current (state, pool, since) triple and the open wake-span ref.
type vcpuAcct struct {
	dom, idx   int16
	registered bool
	state      State
	micro      bool
	since      simtime.Time
	res        [2][numStates]simtime.Duration
	wake       SpanRef
}

// pcpuAcct accumulates one pCPU's execution time and dispatch mix.
type pcpuAcct struct {
	busy       simtime.Duration
	dispatches uint64
	steals     uint64
}

// Observer is the per-run observability state. Create one with New, attach
// it with hv.Hypervisor.SetObserver, and read it out with Summary after the
// clock stops. All methods are single-goroutine, like the simulation itself.
type Observer struct {
	cfg Config

	vcpus []vcpuAcct
	pcpus []pcpuAcct

	spans spanTable
	hists [numSpanKinds]*metrics.Histogram

	// Causal attribution state: per-(kind,stage) latency histograms plus
	// exact int64 ledgers backing the stage conservation law
	// Σ stageTotal[k] == spanTotal[k] (see stage.go).
	stageHists [numSpanKinds][]*metrics.Histogram
	spanTotal  [numSpanKinds]int64
	stageTotal [numSpanKinds][maxStages]int64

	flights   []FlightDump
	flightSeq int
	flightErr error

	// Repairs and Decisions, when set (recovery.Attach and core.Attach
	// register them), are the recovery supervisor's and the adaptive
	// controller's rings; every flight dump includes their contents.
	Repairs   *trace.Ring[trace.Repair]
	Decisions *trace.Ring[trace.Decision]
}

// New constructs an observer.
func New(cfg Config) *Observer {
	o := &Observer{cfg: cfg.withDefaults()}
	for k := range o.hists {
		o.hists[k] = metrics.NewHistogram(spanSubBuckets)
		o.stageHists[k] = make([]*metrics.Histogram, len(spanStageNames[k]))
		for i := range o.stageHists[k] {
			o.stageHists[k][i] = metrics.NewHistogram(spanSubBuckets)
		}
	}
	return o
}

// EnsurePCPUs sizes the pCPU table (cold path, called at attach time).
func (o *Observer) EnsurePCPUs(n int) {
	for len(o.pcpus) < n {
		o.pcpus = append(o.pcpus, pcpuAcct{})
	}
}

// EnsureVCPU registers vCPU id (cold path, called once per vCPU at attach
// or creation time). Newly registered vCPUs start Blocked at time 0, which
// is exactly how hv.AddVCPU creates them.
func (o *Observer) EnsureVCPU(id int, dom, idx int16) {
	for len(o.vcpus) <= id {
		o.vcpus = append(o.vcpus, vcpuAcct{})
	}
	a := &o.vcpus[id]
	a.dom, a.idx, a.registered = dom, idx, true
}

// Transition moves vCPU id into st at virtual time now, crediting the time
// since the previous transition to the previous (pool, state) cell. While a
// wake→dispatch span is open, the same segment is credited to the wake
// stage the old (pool, state) maps to, so the dispatch that closes the span
// finds the whole wait already attributed. Allocation-free.
func (o *Observer) Transition(id int, st State, now simtime.Time) {
	if id >= len(o.vcpus) {
		return
	}
	a := &o.vcpus[id]
	pool := poolNormal
	if a.micro {
		pool = poolMicro
	}
	a.res[pool][a.state] += now - a.since
	if a.wake != 0 {
		o.Stage(a.wake, wakeStageFor(a.micro, a.state), now)
	}
	a.state = st
	a.since = now
}

// SetMicro records a pool-membership change at time now. Idempotent: calling
// with the current membership only flushes the running residency cell.
// Allocation-free.
func (o *Observer) SetMicro(id int, micro bool, now simtime.Time) {
	if id >= len(o.vcpus) {
		return
	}
	a := &o.vcpus[id]
	pool := poolNormal
	if a.micro {
		pool = poolMicro
	}
	a.res[pool][a.state] += now - a.since
	if a.wake != 0 {
		// Attribute the wait so far to the pool the vCPU is leaving; the
		// remainder of the wait accrues to the new pool's wake stage.
		o.Stage(a.wake, wakeStageFor(a.micro, a.state), now)
	}
	a.since = now
	a.micro = micro
}

// PCPURan credits d of execution time to pCPU p (called on deschedule, with
// the same delta hv adds to PCPU.busy). Allocation-free.
func (o *Observer) PCPURan(p int, d simtime.Duration) {
	if p < len(o.pcpus) {
		o.pcpus[p].busy += d
	}
}

// PCPUDispatched counts one dispatch on pCPU p; stolen marks work taken
// from a pool sibling's runqueue. Allocation-free.
func (o *Observer) PCPUDispatched(p int, stolen bool) {
	if p >= len(o.pcpus) {
		return
	}
	o.pcpus[p].dispatches++
	if stolen {
		o.pcpus[p].steals++
	}
}

// WakeBegin opens the wake→dispatch span of vCPU id (called from hv.Wake
// when a Blocked vCPU becomes Runnable). Allocation-free at steady state.
func (o *Observer) WakeBegin(id int, now simtime.Time) {
	if id >= len(o.vcpus) {
		return
	}
	a := &o.vcpus[id]
	if a.wake != 0 {
		// A wake raced an un-dispatched previous wake; keep the older span
		// (the wait started then) and drop the new edge.
		return
	}
	a.wake = o.Begin(SpanWakeDispatch, a.dom, a.idx, 0, now)
}

// WakeEnd closes vCPU id's wake→dispatch span, if one is open (called from
// hv dispatch). Dispatches of vCPUs that were preempted rather than woken
// are a no-op. Allocation-free.
func (o *Observer) WakeEnd(id int, now simtime.Time) {
	if id >= len(o.vcpus) {
		return
	}
	a := &o.vcpus[id]
	if a.wake != 0 {
		o.End(a.wake, now)
		a.wake = 0
	}
}

// VCPUResidency is one vCPU's virtual-time budget decomposition. Durations
// sum over both pools; the Micro* fields isolate the micro-pool share.
type VCPUResidency struct {
	Dom  int16 `json:"dom"`
	VCPU int16 `json:"vcpu"`

	Running  simtime.Duration `json:"running_ns"`
	Runnable simtime.Duration `json:"runnable_ns"` // waiting at UNDER/OVER
	Boosted  simtime.Duration `json:"boosted_ns"`  // waiting at BOOST
	Blocked  simtime.Duration `json:"blocked_ns"`

	MicroRunning simtime.Duration `json:"micro_running_ns"`
	MicroTotal   simtime.Duration `json:"micro_total_ns"` // all states while in the micro pool
}

// Wait returns the total runnable-but-not-running time (the paper's
// virtual-time discontinuity), boosted or not.
func (r VCPUResidency) Wait() simtime.Duration { return r.Runnable + r.Boosted }

// PCPUResidency is one pCPU's utilisation record.
type PCPUResidency struct {
	ID         int              `json:"id"`
	Busy       simtime.Duration `json:"busy_ns"`
	Dispatches uint64           `json:"dispatches"`
	Steals     uint64           `json:"steals"`
}

// residencyOf flattens one vCPU's matrix as of now (flushing the open state
// without mutating the accountant).
func (o *Observer) residencyOf(id int, now simtime.Time) VCPUResidency {
	a := &o.vcpus[id]
	var res [2][numStates]simtime.Duration
	res = a.res
	pool := poolNormal
	if a.micro {
		pool = poolMicro
	}
	res[pool][a.state] += now - a.since

	out := VCPUResidency{Dom: a.dom, VCPU: a.idx}
	for p := 0; p < 2; p++ {
		out.Running += res[p][StateRunning]
		out.Runnable += res[p][StateRunnable]
		out.Boosted += res[p][StateBoosted]
		out.Blocked += res[p][StateBlocked]
	}
	out.MicroRunning = res[poolMicro][StateRunning]
	for st := State(0); st < numStates; st++ {
		out.MicroTotal += res[poolMicro][st]
	}
	return out
}

// ResidencySnapshot returns the full per-vCPU residency table as of now.
// Cold path (allocates); used by the flight recorder and the auditor.
func (o *Observer) ResidencySnapshot(now simtime.Time) []VCPUResidency {
	out := make([]VCPUResidency, 0, len(o.vcpus))
	for id := range o.vcpus {
		if !o.vcpus[id].registered {
			continue
		}
		out = append(out, o.residencyOf(id, now))
	}
	return out
}

// VCPUResidencyOf returns one vCPU's residency as of now (false when the id
// was never registered).
func (o *Observer) VCPUResidencyOf(id int, now simtime.Time) (VCPUResidency, bool) {
	if id >= len(o.vcpus) || !o.vcpus[id].registered {
		return VCPUResidency{}, false
	}
	return o.residencyOf(id, now), true
}

// PCPUSnapshot returns the per-pCPU utilisation table.
func (o *Observer) PCPUSnapshot() []PCPUResidency {
	out := make([]PCPUResidency, len(o.pcpus))
	for i := range o.pcpus {
		out[i] = PCPUResidency{
			ID:         i,
			Busy:       o.pcpus[i].busy,
			Dispatches: o.pcpus[i].dispatches,
			Steals:     o.pcpus[i].steals,
		}
	}
	return out
}

// StageStat summarises one stage of a span kind: the exact share of the
// kind's total closed-span time it consumed, plus the distribution of its
// per-span accumulation over spans where it was nonzero.
type StageStat struct {
	Name  string           `json:"name"`
	Count uint64           `json:"count"`    // spans with nonzero time in this stage
	Total simtime.Duration `json:"total_ns"` // exact Σ over all closed spans
	// Share is Total as a percentage of the span kind's Total, rounded by
	// largest remainder to 0.1% so a kind's shares sum to exactly 100.0.
	Share float64          `json:"share_pct"`
	P50   simtime.Duration `json:"p50_ns"`
	P99   simtime.Duration `json:"p99_ns"`
	P999  simtime.Duration `json:"p999_ns"`
	Max   simtime.Duration `json:"max_ns"`
}

// SpanStat summarises one span kind's closed-span latency distribution and
// its causal decomposition into stages.
type SpanStat struct {
	Kind  string           `json:"kind"`
	Count uint64           `json:"count"`
	P50   simtime.Duration `json:"p50_ns"`
	P99   simtime.Duration `json:"p99_ns"`
	P999  simtime.Duration `json:"p999_ns"`
	Max   simtime.Duration `json:"max_ns"`
	// Total is the exact summed duration of every closed span (the ledger
	// the stage conservation law is checked against).
	Total simtime.Duration `json:"total_ns,omitempty"`
	// Open counts this kind's spans still open at summary time, so a leak
	// is attributable to its kind.
	Open int `json:"open,omitempty"`
	// Stages decomposes Total in attribution order; Σ Stages[i].Total ==
	// Total exactly. Empty when the kind recorded nothing.
	Stages []StageStat `json:"stages,omitempty"`
	// Blame names the dominant stage (largest Total; ties to the earliest)
	// and BlamePct its share — the kind's one-line causal verdict.
	Blame    string  `json:"blame,omitempty"`
	BlamePct float64 `json:"blame_pct,omitempty"`
}

// Summary is the end-of-run telemetry read-out.
type Summary struct {
	Duration  simtime.Duration `json:"duration_ns"`
	Spans     []SpanStat       `json:"spans"` // one per kind, declaration order
	VCPUs     []VCPUResidency  `json:"vcpus"`
	PCPUs     []PCPUResidency  `json:"pcpus"`
	OpenSpans int              `json:"open_spans"` // spans never closed by run end
	Flights   []FlightDump     `json:"flights,omitempty"`
}

// BusiestPCPU returns the pCPU with the most accumulated execution time
// (-1, 0 when the summary has no pCPUs).
func (s *Summary) BusiestPCPU() (id int, busy simtime.Duration) {
	id = -1
	for _, p := range s.PCPUs {
		if p.Busy > busy || id < 0 {
			id, busy = p.ID, p.Busy
		}
	}
	return id, busy
}

// Span returns the stat of the named span kind (nil if unknown).
func (s *Summary) Span(kind string) *SpanStat {
	for i := range s.Spans {
		if s.Spans[i].Kind == kind {
			return &s.Spans[i]
		}
	}
	return nil
}

// Summary flattens the observer's state as of now. Cold path.
func (o *Observer) Summary(now simtime.Time) *Summary {
	s := &Summary{
		Duration:  simtime.Duration(now),
		VCPUs:     o.ResidencySnapshot(now),
		PCPUs:     o.PCPUSnapshot(),
		OpenSpans: o.spans.open(),
		Flights:   o.flights,
	}
	for k := SpanKind(0); k < numSpanKinds; k++ {
		h := o.hists[k]
		st := SpanStat{
			Kind:  k.String(),
			Count: h.Count(),
			P50:   simtime.Duration(h.Quantile(0.5)),
			P99:   simtime.Duration(h.Quantile(0.99)),
			P999:  simtime.Duration(h.Quantile(0.999)),
			Max:   simtime.Duration(h.Max()),
			Total: simtime.Duration(o.spanTotal[k]),
			Open:  o.spans.openByKind[k],
		}
		if st.Count > 0 {
			total, stages := o.SpanLedger(k)
			shares := sharesPct(stages)
			for i, name := range spanStageNames[k] {
				sh := o.stageHists[k][i]
				st.Stages = append(st.Stages, StageStat{
					Name:  name,
					Count: sh.Count(),
					Total: simtime.Duration(stages[i]),
					Share: shares[i],
					P50:   simtime.Duration(sh.Quantile(0.5)),
					P99:   simtime.Duration(sh.Quantile(0.99)),
					P999:  simtime.Duration(sh.Quantile(0.999)),
					Max:   simtime.Duration(sh.Max()),
				})
			}
			blame := 0
			for i := range stages {
				if stages[i] > stages[blame] {
					blame = i
				}
			}
			if total > 0 {
				st.Blame = spanStageNames[k][blame]
				st.BlamePct = shares[blame]
			}
		}
		s.Spans = append(s.Spans, st)
	}
	return s
}

// Hist exposes the latency histogram of one span kind (nil for an unknown
// kind), for tests and custom reporting.
func (o *Observer) Hist(k SpanKind) *metrics.Histogram {
	if k >= numSpanKinds {
		return nil
	}
	return o.hists[k]
}
