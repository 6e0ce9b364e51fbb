package obs

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// ExportMeta labels the exported timeline. Chrome trace-event processes map
// to domains and threads to vCPUs.
type ExportMeta struct {
	// DomainNames maps a domain ID to its display name.
	DomainNames map[int16]string
	// Spans, when non-nil, embeds the run's span/stage aggregates (one
	// SpanStat per kind, as produced by Observer.Summary) as "X" events on
	// a synthetic "latency" process (pid=-2): one slice per recorded kind,
	// its stage decomposition in args. microtrace blame recomputes the
	// attribution table offline from these events.
	Spans []SpanStat
	// Decisions, when non-nil, embeds the adaptive controller's decision
	// trail as "i" instant events on a synthetic "controller" process
	// (pid=-3): one instant per sizing decision, named by its reason, with
	// the chosen size, live ceiling and classified sample in args.
	Decisions []trace.Decision
}

// blamePID is the synthetic trace-event process carrying span/stage
// aggregates (pid=-1 is the host row); ctrlPID carries the adaptive
// controller's decision trail.
const (
	blamePID = -2
	ctrlPID  = -3
)

// chromeHeader/chromeFooter frame the trace-event JSON object. Perfetto and
// chrome://tracing both load this shape directly.
const (
	chromeHeader = `{"displayTimeUnit":"ns","traceEvents":[`
	chromeFooter = "\n]}\n"
)

// runKey identifies one vCPU's open running interval during export.
type runKey struct {
	dom, vcpu int16
}

type openRun struct {
	start simtime.Time
	pcpu  int16
	prio  uint64
}

// WriteChromeTrace streams recs (oldest-first, as returned by
// trace.Buffer.Records) to w as Chrome trace-event JSON:
//
//   - each vCPU's running intervals (KindSchedule → KindPreempt / KindYield
//     / KindBlock) become "X" complete events on pid=domain, tid=vCPU;
//   - wakes, boosts, IPIs (relayed and lost), IRQs, migrations, pool
//     resizes, hotplugs and recovery repairs become "i" instant events;
//   - domains and vCPUs get process_name / thread_name metadata.
//
// Timestamps and durations are microseconds with nanosecond precision
// (three decimals), per the trace-event format.
func WriteChromeTrace(w io.Writer, recs []trace.Record, meta ExportMeta) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(chromeHeader); err != nil {
		return err
	}
	e := &chromeEmitter{w: bw}

	// Metadata first: name every domain we will reference.
	seenDom := map[int16]bool{}
	seenThread := map[runKey]bool{}
	nameDom := func(dom int16) {
		if seenDom[dom] {
			return
		}
		seenDom[dom] = true
		name := meta.DomainNames[dom]
		if name == "" {
			name = fmt.Sprintf("dom%d", dom)
		}
		e.emitf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			dom, jsonString(name))
	}
	nameThread := func(dom, vcpu int16) {
		k := runKey{dom, vcpu}
		if seenThread[k] {
			return
		}
		seenThread[k] = true
		nameDom(dom)
		e.emitf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"vcpu%d"}}`,
			dom, vcpu, vcpu)
	}

	open := map[runKey]openRun{}
	var last simtime.Time
	for _, r := range recs {
		if r.Time > last {
			last = r.Time
		}
		k := runKey{r.Dom, r.VCPU}
		switch r.Kind {
		case trace.KindSchedule:
			nameThread(r.Dom, r.VCPU)
			if o, ok := open[k]; ok {
				// A schedule with no closing edge in the ring (wrap): close
				// the stale interval at this instant rather than losing it.
				e.complete(r.Dom, r.VCPU, o, r.Time)
			}
			open[k] = openRun{start: r.Time, pcpu: r.PCPU, prio: r.Arg0}
		case trace.KindPreempt, trace.KindYield, trace.KindBlock:
			if o, ok := open[k]; ok {
				e.complete(r.Dom, r.VCPU, o, r.Time)
				delete(open, k)
			}
			if r.Kind != trace.KindPreempt {
				nameThread(r.Dom, r.VCPU)
				e.instant(r, "")
			}
		case trace.KindPoolResize:
			// Pool events carry no vCPU; pin them to a synthetic "host" row.
			e.emitf(`{"ph":"i","s":"g","pid":-1,"tid":0,"ts":%s,"name":"%s","args":{"micro_cores":%d}}`,
				usec(r.Time), r.Kind, r.Arg0)
		case trace.KindHotplug:
			what := "offline"
			if r.Arg0 == 1 {
				what = "online"
			}
			e.emitf(`{"ph":"i","s":"g","pid":-1,"tid":0,"ts":%s,"name":"hotplug-%s","args":{"pcpu":%d}}`,
				usec(r.Time), what, r.Arg1)
		default:
			nameThread(r.Dom, r.VCPU)
			e.instant(r, "")
		}
	}
	// Close intervals still running when the trace ends, in pCPU then vCPU
	// order: the map's order would change from one export to the next.
	running := make([]runKey, 0, len(open))
	for k := range open {
		running = append(running, k)
	}
	slices.SortFunc(running, func(a, b runKey) int {
		return cmp.Or(cmp.Compare(open[a].pcpu, open[b].pcpu), cmp.Compare(a.dom, b.dom), cmp.Compare(a.vcpu, b.vcpu))
	})
	for _, k := range running {
		if o := open[k]; last > o.start {
			e.complete(k.dom, k.vcpu, o, last)
		}
	}
	if e.err != nil {
		return e.err
	}
	e.spanAggregates(meta.Spans)
	e.controllerDecisions(meta.Decisions)
	if len(seenDom) > 0 || e.n > 0 {
		e.emitf(`{"ph":"M","pid":-1,"name":"process_name","args":{"name":"host"}}`)
	}
	if _, err := bw.WriteString(chromeFooter); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEmitter writes comma-separated JSON events.
type chromeEmitter struct {
	w   *bufio.Writer
	n   int
	err error
}

func (e *chromeEmitter) emitf(format string, args ...any) {
	if e.err != nil {
		return
	}
	if e.n > 0 {
		if _, e.err = e.w.WriteString(",\n"); e.err != nil {
			return
		}
	} else {
		if _, e.err = e.w.WriteString("\n"); e.err != nil {
			return
		}
	}
	e.n++
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func (e *chromeEmitter) complete(dom, vcpu int16, o openRun, end simtime.Time) {
	e.emitf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":"run p%d","cat":"sched","args":{"pcpu":%d,"prio":%d}}`,
		dom, vcpu, usec(o.start), usec(end-o.start), o.pcpu, o.pcpu, o.prio)
}

// spanAggregates emits one "X" slice per recorded span kind on the
// synthetic latency-attribution process: ts=0, dur=the kind's p99, and the
// full causal read-out (count, quantiles, per-stage totals and shares) in
// args, keyed by cat="blame" so offline consumers can find them.
func (e *chromeEmitter) spanAggregates(spans []SpanStat) {
	emitted := false
	for i := range spans {
		sp := &spans[i]
		if sp.Count == 0 {
			continue
		}
		stages, err := json.Marshal(sp.Stages)
		if err != nil {
			e.err = err
			return
		}
		e.emitf(`{"ph":"X","pid":%d,"tid":%d,"ts":0,"dur":%s,"name":%s,"cat":"blame","args":{"count":%d,"open":%d,"total_ns":%d,"p50_ns":%d,"p99_ns":%d,"p999_ns":%d,"blame":%s,"blame_pct":%g,"stages":%s}}`,
			blamePID, i, usec(simtime.Time(sp.P99)), jsonString(sp.Kind),
			sp.Count, sp.Open, int64(sp.Total), int64(sp.P50), int64(sp.P99), int64(sp.P999),
			jsonString(sp.Blame), sp.BlamePct, stages)
		e.emitf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			blamePID, i, jsonString(sp.Kind))
		emitted = true
	}
	if emitted {
		e.emitf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"latency attribution"}}`, blamePID)
	}
}

// controllerDecisions emits one "i" instant per retained sizing decision on
// the synthetic controller process: ts=decision time, name=the reason, and
// the full audit record in args, keyed by cat="controller".
func (e *chromeEmitter) controllerDecisions(decs []trace.Decision) {
	if len(decs) == 0 {
		return
	}
	for _, d := range decs {
		e.emitf(`{"ph":"i","s":"p","pid":%d,"tid":0,"ts":%s,"name":%s,"cat":"controller","args":{"epoch":%d,"micro_cores":%d,"ceiling":%d,"ipis":%d,"ples":%d,"irqs":%d}}`,
			ctrlPID, usec(d.Time), jsonString(d.Reason.String()),
			d.Epoch, d.Chosen, d.Ceiling, d.IPIs, d.PLEs, d.IRQs)
	}
	e.emitf(`{"ph":"M","pid":%d,"tid":0,"name":"thread_name","args":{"name":"decisions"}}`, ctrlPID)
	e.emitf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"controller"}}`, ctrlPID)
}

func (e *chromeEmitter) instant(r trace.Record, suffix string) {
	e.emitf(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"name":"%s%s","cat":"%s","args":{"pcpu":%d,"arg0":%d,"arg1":%d}}`,
		r.Dom, r.VCPU, usec(r.Time), r.Kind, suffix, r.Kind, r.PCPU, r.Arg0, r.Arg1)
}

// usec renders a virtual time/duration as microseconds with nanosecond
// precision.
func usec(t simtime.Time) string {
	return fmt.Sprintf("%d.%03d", int64(t)/1000, int64(t)%1000)
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// ValidateChromeTrace parses r as Chrome trace-event JSON and verifies the
// schema fields a viewer depends on: a displayTimeUnit, a traceEvents
// array, a "ph" on every event, pid/tid/ts on every placeable event and a
// dur on every "X" complete event. It returns a descriptive error on the
// first problem found, and the number of events on success.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("obs: trace JSON parse: %w", err)
	}
	if doc.DisplayTimeUnit == "" {
		return 0, fmt.Errorf("obs: trace missing displayTimeUnit")
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("obs: trace has no traceEvents")
	}
	completes := 0
	for i, ev := range doc.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			return 0, fmt.Errorf("obs: event %d missing ph", i)
		}
		needNum := func(field string) error {
			if _, ok := ev[field].(json.Number); !ok {
				return fmt.Errorf("obs: event %d (ph=%q) missing numeric %s", i, ph, field)
			}
			return nil
		}
		switch ph {
		case "M":
			if err := needNum("pid"); err != nil {
				return 0, err
			}
		case "X":
			completes++
			for _, f := range []string{"pid", "tid", "ts", "dur"} {
				if err := needNum(f); err != nil {
					return 0, err
				}
			}
		default:
			for _, f := range []string{"pid", "tid", "ts"} {
				if err := needNum(f); err != nil {
					return 0, err
				}
			}
		}
	}
	if completes == 0 {
		return 0, fmt.Errorf("obs: trace has no complete (ph=X) events — no run intervals reconstructed")
	}
	return len(doc.TraceEvents), nil
}
