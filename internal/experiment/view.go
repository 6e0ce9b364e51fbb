package experiment

// VMStats is one VM's outcome.
type VMStats struct {
	Name string
	App  string
	// WorkUnits counts completed application iterations (messages,
	// flush cycles, compute bursts, ...). Ratios of WorkUnits between
	// runs of equal Seconds give normalized execution time / throughput.
	WorkUnits uint64
	// Yields decomposed by source.
	YieldsIPI, YieldsSpinlock, YieldsHalt, YieldsOther uint64
	// CPUSeconds of virtual execution time across the VM's vCPUs.
	CPUSeconds float64
	// TLBSyncAvgUs / TLBSyncMaxUs summarize TLB-shootdown latency.
	TLBSyncAvgUs, TLBSyncMaxUs float64
	// LockWaitAvgUs is the mean contended spinlock wait per Lockstat
	// class.
	LockWaitAvgUs map[string]float64
	// Requests is the serving read-out (nil unless the VM had a Serve
	// config).
	Requests *ServeStats
	// Stream is the iPerf read-out (nil unless the VM had a Stream).
	Stream *IOMeasure
}

// ServeStats is the end-to-end outcome of a VM's request-serving
// workload; the facade exposes it as microsliced.RequestStats. The ledger
// is exact and conserved: Offered == Dropped + Completed + InFlight.
type ServeStats struct {
	// Offered counts arrivals fired at their intended instants; Dropped
	// those tail-dropped at the full NIC ring (SLO violations); Completed
	// those whose reply was transmitted; Late the completed ones that
	// missed the SLO; InFlight those still in the pipeline at run end.
	Offered, Dropped, Completed, Late, InFlight uint64
	// SLOMs is the objective the run was judged against.
	SLOMs float64
	// Latency quantiles (ms) of completed requests, measured from the
	// intended arrival (coordinated-omission-free).
	P50Ms, P99Ms, P999Ms, MaxMs float64
	// OfferedRPS and GoodputRPS are offered load and completed-within-SLO
	// throughput over the run.
	OfferedRPS, GoodputRPS float64
}

// SLOAttainment is the fraction of offered requests served within the
// SLO (1 when nothing was offered).
func (r *ServeStats) SLOAttainment() float64 {
	if r.Offered == 0 {
		return 1
	}
	return 1 - float64(r.Dropped+r.Late)/float64(r.Offered)
}

// TotalYields sums the yield sources.
func (s *VMStats) TotalYields() uint64 {
	return s.YieldsIPI + s.YieldsSpinlock + s.YieldsHalt + s.YieldsOther
}

// Results is the outcome of Simulate.
type Results struct {
	VMs []VMStats
	// MicroCoresAvg is the time-weighted mean size of the micro pool.
	MicroCoresAvg float64
	// HypervisorCounters exposes raw scheduler counters (dispatches,
	// migrations, boosts, ...).
	HypervisorCounters map[string]uint64
	// DetectorCounters exposes the micro-sliced controller's counters.
	DetectorCounters map[string]uint64
	// CriticalSymbolHits histograms the critical kernel symbols observed
	// at preempted vCPUs' instruction pointers.
	CriticalSymbolHits map[string]uint64
	// InvariantViolations lists what the scheduler auditor found (empty
	// unless Scenario.Audit or fault injection was enabled; always empty
	// on a healthy scheduler).
	InvariantViolations []string
	// FaultErrors lists injected faults the hypervisor refused to apply.
	FaultErrors []string
	// Repairs lists the supervisor's retained detections and repairs in
	// order (empty unless Scenario.Recovery was set), and RepairCount the
	// exact total including any that aged out of the retained ring.
	Repairs     []string
	RepairCount uint64
	// MTTRSeconds is the quiesce→last-repair convergence time (0 without a
	// supervisor, a fault quiesce point, or any post-quiesce repairs).
	MTTRSeconds float64
	// LostIPIs counts interrupts still in the lost-IPI ledger at run end; a
	// converged recovery run drains it to zero.
	LostIPIs int
	// Telemetry is the observability read-out (nil unless
	// Scenario.Telemetry was set).
	Telemetry *Telemetry
}

// SpanStats summarizes one latency span kind's distribution and names its
// dominant stage (the struct stays comparable: stage detail lives in
// Telemetry.Stages).
type SpanStats struct {
	Count  uint64  `json:"count"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
	// Blame names the stage that consumed the largest share of the kind's
	// total closed-span time, and BlamePct that share in percent.
	Blame    string  `json:"blame,omitempty"`
	BlamePct float64 `json:"blame_pct,omitempty"`
}

// StageStats summarizes one stage of a span kind: its share of the kind's
// total time (a kind's shares sum to exactly 100.0) and the distribution of
// its per-span accumulation.
type StageStats struct {
	Count    uint64  `json:"count"`
	SharePct float64 `json:"share_pct"`
	TotalMs  float64 `json:"total_ms"`
	P50us    float64 `json:"p50_us"`
	P99us    float64 `json:"p99_us"`
	P999us   float64 `json:"p999_us"`
	MaxUs    float64 `json:"max_us"`
}

// Telemetry is a scenario's observability read-out.
type Telemetry struct {
	// Spans maps span kind — "wake_dispatch", "ipi_deliver",
	// "lock_acquire", "disk_io", "net_rx" — to its latency distribution.
	// Kinds never observed are absent.
	Spans map[string]SpanStats `json:"spans"`
	// Stages decomposes each recorded span kind causally: Stages[kind] maps
	// stage name (e.g. "runq_wait", "preempt_wait") to its latency budget.
	// Σ stage durations == span duration exactly for every closed span.
	Stages map[string]map[string]StageStats `json:"stages,omitempty"`
	// OpenSpans attributes spans still open at run end to their kinds
	// (kinds with none open are absent) — a persistent entry here means a
	// span leak on that path.
	OpenSpans map[string]int `json:"open_spans,omitempty"`
	// BusiestPCPU is the pCPU with the most execution time, and
	// BusiestPCPUSeconds that time.
	BusiestPCPU        int     `json:"busiest_pcpu"`
	BusiestPCPUSeconds float64 `json:"busiest_pcpu_seconds"`
	// Dispatches and Steals count scheduler dispatches host-wide and how
	// many of them ran a vCPU stolen from another pCPU's runqueue.
	Dispatches uint64 `json:"dispatches"`
	Steals     uint64 `json:"steals"`
	// FlightDumps counts flight-recorder triggers during the run.
	FlightDumps int `json:"flight_dumps"`
	// Decisions is the adaptive controller's retained decision audit trail
	// (oldest first; a bounded ring) and DecisionCount its exact total
	// including entries that aged out of the ring. Empty unless the
	// scenario ran the dynamic controller.
	Decisions     []ControllerDecision `json:"decisions,omitempty"`
	DecisionCount uint64               `json:"decision_count,omitempty"`
}

// ControllerDecision is one Algorithm 1 sizing decision from the adaptive
// controller's audit trail.
type ControllerDecision struct {
	TimeMs float64 `json:"t_ms"`
	Epoch  uint64  `json:"epoch"`
	// Reason is the decision path taken: "idle", "single", "ipi-search",
	// "best-pick", "stability-skip" or "capacity-clamp".
	Reason string `json:"reason"`
	// MicroCores is the achieved pool size; Ceiling the live capacity
	// bound the decision ran under (smaller than the configured maximum
	// after pCPU hot-unplug).
	MicroCores int `json:"micro_cores"`
	Ceiling    int `json:"ceiling"`
	// IPIs/PLEs/IRQs are the urgent-event counts of the classified sample.
	IPIs uint64 `json:"ipis"`
	PLEs uint64 `json:"ples"`
	IRQs uint64 `json:"irqs"`
}

// Span returns the stats of one span kind (zero value if never observed).
func (t *Telemetry) Span(kind string) SpanStats { return t.Spans[kind] }

// Stage returns the stats of one (kind, stage) cell (zero value if never
// observed).
func (t *Telemetry) Stage(kind, stage string) StageStats { return t.Stages[kind][stage] }

// VM returns the stats of the named VM (nil if absent).
func (r *Results) VM(name string) *VMStats {
	for i := range r.VMs {
		if r.VMs[i].Name == name {
			return &r.VMs[i]
		}
	}
	return nil
}

// View computes the run's public read-out, which the facade (package
// microsliced) returns from Simulate under aliased type names. It is the
// one place where the harness's nanoseconds become seconds, milliseconds
// or microseconds, and it leaves the internal ledgers out. The counter
// maps, FaultErrors and the Stream read-outs are shared with r. Nothing is
// stored in r, so r's JSON encoding stays the harness's own.
func (r *Result) View() *Results {
	out := &Results{
		MicroCoresAvg:      r.MicroAvg,
		HypervisorCounters: r.HV,
		DetectorCounters:   r.Core,
		CriticalSymbolHits: r.SymbolHits,
		FaultErrors:        r.FaultErrs,
		RepairCount:        r.RepairCount,
		MTTRSeconds:        r.MTTR.Seconds(),
		LostIPIs:           r.LostIPIs,
	}
	for i := range r.Violations {
		out.InvariantViolations = append(out.InvariantViolations, r.Violations[i].Error())
	}
	for _, e := range r.Repairs {
		out.Repairs = append(out.Repairs, e.String())
	}
	if r.Telemetry != nil {
		out.Telemetry = r.telemetryView()
	}
	for _, vm := range r.VMs {
		st := VMStats{
			Name:           vm.Name,
			App:            vm.App,
			WorkUnits:      vm.Units,
			YieldsIPI:      vm.Yields.IPI,
			YieldsSpinlock: vm.Yields.PLE,
			YieldsHalt:     vm.Yields.Halt,
			YieldsOther:    vm.Yields.Other,
			CPUSeconds:     vm.RanTotal.Seconds(),
			LockWaitAvgUs:  map[string]float64{},
			Stream:         vm.Stream,
		}
		if vm.TLB.Count() > 0 {
			st.TLBSyncAvgUs = us(vm.TLB.Mean())
			st.TLBSyncMaxUs = us(vm.TLB.Max())
		}
		for class, h := range vm.LockStat {
			if h.Count() > 0 {
				st.LockWaitAvgUs[class] = us(h.Mean())
			}
		}
		if rq := vm.Requests; rq != nil {
			st.Requests = &ServeStats{
				Offered:    rq.Offered,
				Dropped:    rq.Dropped,
				Completed:  rq.Completed,
				Late:       rq.Late,
				InFlight:   rq.InFlight,
				SLOMs:      ms(rq.SLO),
				P50Ms:      ms(rq.P50),
				P99Ms:      ms(rq.P99),
				P999Ms:     ms(rq.P999),
				MaxMs:      ms(rq.Max),
				OfferedRPS: rq.OfferedRPS,
				GoodputRPS: rq.GoodputRPS,
			}
		}
		out.VMs = append(out.VMs, st)
	}
	return out
}

// telemetryView converts the run's observability summary and decision
// trail (residency collapses to headline figures).
func (r *Result) telemetryView() *Telemetry {
	sum := r.Telemetry
	t := &Telemetry{
		Spans:       make(map[string]SpanStats, len(sum.Spans)),
		FlightDumps: len(sum.Flights),
	}
	for _, sp := range sum.Spans {
		if sp.Open > 0 {
			if t.OpenSpans == nil {
				t.OpenSpans = make(map[string]int)
			}
			t.OpenSpans[sp.Kind] = sp.Open
		}
		if sp.Count == 0 {
			continue
		}
		t.Spans[sp.Kind] = SpanStats{
			Count:    sp.Count,
			P50us:    us(sp.P50),
			P99us:    us(sp.P99),
			P999us:   us(sp.P999),
			MaxUs:    us(sp.Max),
			Blame:    sp.Blame,
			BlamePct: sp.BlamePct,
		}
		if len(sp.Stages) > 0 {
			if t.Stages == nil {
				t.Stages = make(map[string]map[string]StageStats)
			}
			cells := make(map[string]StageStats, len(sp.Stages))
			for _, st := range sp.Stages {
				cells[st.Name] = StageStats{
					Count:    st.Count,
					SharePct: st.Share,
					TotalMs:  ms(st.Total),
					P50us:    us(st.P50),
					P99us:    us(st.P99),
					P999us:   us(st.P999),
					MaxUs:    us(st.Max),
				}
			}
			t.Stages[sp.Kind] = cells
		}
	}
	id, busy := sum.BusiestPCPU()
	t.BusiestPCPU = id
	t.BusiestPCPUSeconds = busy.Seconds()
	for _, p := range sum.PCPUs {
		t.Dispatches += p.Dispatches
		t.Steals += p.Steals
	}
	for _, d := range r.Decisions {
		t.Decisions = append(t.Decisions, ControllerDecision{
			TimeMs:     ms(d.Time),
			Epoch:      d.Epoch,
			Reason:     d.Reason.String(),
			MicroCores: d.Chosen,
			Ceiling:    d.Ceiling,
			IPIs:       d.IPIs,
			PLEs:       d.PLEs,
			IRQs:       d.IRQs,
		})
	}
	t.DecisionCount = r.DecisionCount
	return t
}

// us and ms convert a nanosecond quantity to microseconds and milliseconds.
func us[T ~int64 | ~float64](ns T) float64 { return float64(ns) / 1e3 }
func ms[T ~int64 | ~float64](ns T) float64 { return float64(ns) / 1e6 }
