package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// FlightDump is one flight-recorder snapshot: why it fired, the trace-ring
// tail leading up to the trigger, the recent repairs and controller
// decisions, and the full accounting state at that instant. It is
// self-contained — everything needed to diagnose the trigger without
// re-running the scenario.
type FlightDump struct {
	Seq    int          `json:"seq"`
	Time   simtime.Time `json:"t_ns"`
	Label  string       `json:"label"`
	Reason string       `json:"reason"` // "invariant:<rule>" or "fault"
	Detail string       `json:"detail"`

	VCPUs     []VCPUResidency `json:"vcpus"`
	PCPUs     []PCPUResidency `json:"pcpus"`
	OpenSpans []OpenSpan      `json:"open_spans,omitempty"`
	// OpenByKind attributes the open spans to their kinds (kinds with none
	// open are omitted), so a dump names what leaked at a glance.
	OpenByKind map[string]int   `json:"open_by_kind,omitempty"`
	Trace      []trace.Record   `json:"trace,omitempty"`
	Repairs    []trace.Repair   `json:"repairs,omitempty"`
	Decisions  []trace.Decision `json:"decisions,omitempty"`

	// File is where the dump was written (empty for in-memory dumps).
	File string `json:"-"`
}

// Flight takes a snapshot: the last FlightDepth records of tail (callers
// hand over a fresh trace.Buffer.Tail, which the dump keeps), the
// registered repair and decision rings, the residency tables and the
// open-span table, all as of now. Dumps beyond maxFlights are
// dropped (the first triggers are the interesting ones; a violation storm
// repeats itself). When Config.FlightDir is set the dump is also written
// as flight-<label>-<seq>.json there. Cold path.
func (o *Observer) Flight(now simtime.Time, reason, detail string, tail []trace.Record) {
	o.flightSeq++
	if len(o.flights) >= maxFlights {
		return
	}
	if len(tail) > FlightDepth {
		tail = tail[len(tail)-FlightDepth:]
	}
	d := FlightDump{
		Seq:       o.flightSeq,
		Time:      now,
		Label:     o.cfg.Label,
		Reason:    reason,
		Detail:    detail,
		Trace:     tail,
		VCPUs:     o.ResidencySnapshot(now),
		PCPUs:     o.PCPUSnapshot(),
		OpenSpans: o.OpenSpans(),
	}
	for i, n := range o.OpenSpansByKind() {
		if n > 0 {
			if d.OpenByKind == nil {
				d.OpenByKind = make(map[string]int)
			}
			d.OpenByKind[SpanKind(i).String()] = n
		}
	}
	if o.Repairs != nil {
		d.Repairs = o.Repairs.All()
	}
	if o.Decisions != nil {
		d.Decisions = o.Decisions.All()
	}
	if o.cfg.FlightDir != "" {
		if err := o.writeFlight(&d); err != nil && o.flightErr == nil {
			o.flightErr = err
		}
	}
	o.flights = append(o.flights, d)
}

func (o *Observer) writeFlight(d *FlightDump) error {
	if err := os.MkdirAll(o.cfg.FlightDir, 0o755); err != nil {
		return fmt.Errorf("obs: flight dir: %w", err)
	}
	name := filepath.Join(o.cfg.FlightDir,
		fmt.Sprintf("flight-%s-%03d.json", o.cfg.Label, d.Seq))
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: flight marshal: %w", err)
	}
	if err := os.WriteFile(name, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: flight write: %w", err)
	}
	d.File = name
	return nil
}

// FlightErr returns the first error hit writing dumps to FlightDir (nil
// when everything was written, or when dumps are in-memory only).
func (o *Observer) FlightErr() error { return o.flightErr }
