// Command microtrace runs a consolidation scenario with the trace ring
// enabled (the simulator's xentrace) and prints a per-vCPU scheduling
// analysis, a yield-RIP histogram resolved through each guest's
// System.map, and optionally the raw record tail. Two subcommands work
// with Chrome trace-event JSON instead:
//
//	microtrace -vms gmake,swaptions -mode off -seconds 1
//	microtrace -vms dedup,swaptions -mode static -cores 3 -raw 40
//	microtrace export -vms gmake,swaptions -mode dynamic -o trace.json
//	microtrace validate trace.json
//	microtrace blame trace.json
//	microtrace blame blame.json
//
// blame recomputes the causal latency-attribution table offline: given an
// exported trace it rebuilds the table from the embedded cat="blame" events;
// given a blame JSON document (paperbench -blame-out) it validates the schema
// and renders the table.
//
// Exported files load directly in Perfetto (https://ui.perfetto.dev).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
	"github.com/microslicedcore/microsliced/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "export":
			exportMain(os.Args[2:])
			return
		case "validate":
			validateMain(os.Args[2:])
			return
		case "blame":
			blameMain(os.Args[2:])
			return
		}
	}
	analyzeMain(os.Args[1:])
}

// scenario holds the flags analyze and export share.
type scenario struct {
	vms, mode                 string
	cores, pcpus, vcpus, ring int
	seconds                   float64
}

func (sc *scenario) register(fs *flag.FlagSet) {
	fs.StringVar(&sc.vms, "vms", "gmake,swaptions", "comma-separated workloads, one VM each")
	fs.StringVar(&sc.mode, "mode", "off", "off, static, dynamic")
	fs.IntVar(&sc.cores, "cores", 1, "micro cores for -mode static")
	fs.Float64Var(&sc.seconds, "seconds", 1, "simulated seconds")
	fs.IntVar(&sc.pcpus, "pcpus", 12, "physical CPUs")
	fs.IntVar(&sc.vcpus, "vcpus", 12, "vCPUs per VM")
	fs.IntVar(&sc.ring, "ring", 1<<20, "trace ring capacity (records); export keeps at least 262144")
}

// setup lowers the flags to the scenario both subcommands run: VM i is
// named "<app>-i", seeded 11*(i+1) and started i*7ms into the run. An
// unknown workload is rejected here, before export creates its output file.
func (sc scenario) setup() (experiment.Setup, error) {
	cc, err := experiment.CoreConfig(sc.mode, sc.cores)
	if err != nil {
		return experiment.Setup{}, err
	}
	cfg := hv.DefaultConfig()
	cfg.TraceCapacity = sc.ring
	s := experiment.Setup{
		PCPUs:        sc.pcpus,
		Core:         cc,
		Duration:     simtime.Duration(sc.seconds * float64(simtime.Second)),
		StaggerStart: true,
		HVConfig:     &cfg,
	}
	for i, app := range strings.Split(sc.vms, ",") {
		app = strings.TrimSpace(app)
		if !workload.Known(app) {
			return experiment.Setup{}, fmt.Errorf("unknown workload %q (have %v)", app, workload.Catalog())
		}
		s.VMs = append(s.VMs, experiment.VMSpec{
			Name: fmt.Sprintf("%s-%d", app, i), App: app, VCPUs: sc.vcpus, Seed: uint64(11 * (i + 1)),
		})
	}
	return s, nil
}

// fail prints err and exits non-zero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// analyzeMain is the classic mode: run, analyze, print text.
func analyzeMain(args []string) {
	fs := flag.NewFlagSet("microtrace", flag.ExitOnError)
	var sc scenario
	sc.register(fs)
	raw := fs.Int("raw", 0, "also dump the last N raw records")
	fs.Parse(args)

	s, err := sc.setup()
	if err != nil {
		fail(err)
	}
	var recs []trace.Record
	tabs := map[int16]*ksym.Table{}
	s.PostCheck = func(pr *experiment.PostRun) error {
		recs = pr.HV.Trace.Records()
		// Resolve RIPs against the System.map each guest handed the
		// hypervisor, as the detector does.
		for _, d := range pr.HV.Domains() {
			tab, _, err := ksym.ParseShared(d.SymbolMap)
			if err != nil {
				return err
			}
			tabs[int16(d.ID)] = tab
		}
		return nil
	}
	if _, err := experiment.Run(s); err != nil {
		fail(err)
	}
	trace.Analyze(recs).Render(os.Stdout)

	fmt.Println("\nyield RIPs (by symbol):")
	rips := trace.YieldRIPs(recs, func(dom int16, rip uint64) string {
		if tab := tabs[dom]; tab != nil {
			return fmt.Sprintf("dom%d:%s", dom, tab.NameOf(rip))
		}
		return "?"
	})
	names := make([]string, 0, len(rips))
	for n := range rips {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rips[names[i]] > rips[names[j]] })
	for _, n := range names {
		fmt.Printf("   %-48s %d\n", n, rips[n])
	}

	if *raw > 0 {
		fmt.Printf("\nlast %d records:\n", *raw)
		start := len(recs) - *raw
		if start < 0 {
			start = 0
		}
		for _, r := range recs[start:] {
			fmt.Println(r)
		}
	}
}

// exportMain runs the same scenario as analyzeMain with the observer on and
// writes the trace ring as Chrome trace-event JSON, with the controller's
// decisions and the span/stage blame aggregates embedded.
func exportMain(args []string) {
	fs := flag.NewFlagSet("microtrace export", flag.ExitOnError)
	var sc scenario
	sc.register(fs)
	out := fs.String("o", "trace.json", "output file (- for stdout)")
	fs.Parse(args)

	s, err := sc.setup()
	if err != nil {
		fail(err)
	}
	s.Obs = &obs.Config{}
	s.TraceExport = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		s.TraceExport = f
	}
	res, err := experiment.Run(s)
	if err != nil {
		fail(err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%v simulated; load at https://ui.perfetto.dev)\n", *out, res.Duration)
	}
}

// validateMain structurally checks a Chrome trace-event JSON file.
func validateMain(args []string) {
	fs := flag.NewFlagSet("microtrace validate", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: microtrace validate <trace.json>")
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	defer f.Close()
	n, err := obs.ValidateChromeTrace(f)
	if err != nil {
		fail(fmt.Errorf("%s: INVALID: %w", fs.Arg(0), err))
	}
	fmt.Printf("%s: ok (%d events)\n", fs.Arg(0), n)
}

// blameMain rebuilds (or validates) a causal latency-attribution table
// offline. It accepts either an exported Chrome trace (rows recomputed from
// the embedded cat="blame" events) or a blame JSON document itself; both are
// checked against the report.Blame schema contract before rendering.
func blameMain(args []string) {
	fs := flag.NewFlagSet("microtrace blame", flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "trace", "scenario label for rows rebuilt from a trace")
		out      = fs.String("o", "", "also write the table as JSON to this file")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: microtrace blame [-scenario name] [-o blame.json] <trace.json|blame.json>")
		os.Exit(2)
	}
	buf, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	b, err := blameFromFile(buf, *scenario)
	if err != nil {
		fail(fmt.Errorf("%s: %w", fs.Arg(0), err))
	}
	if err := b.Validate(); err != nil {
		fail(fmt.Errorf("%s: INVALID: %w", fs.Arg(0), err))
	}
	if *out != "" {
		enc, err := json.MarshalIndent(b, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(enc, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
	}
	b.Render(os.Stdout)
	fmt.Fprintf(os.Stderr, "%s: ok (%d span kinds)\n", fs.Arg(0), len(b.Rows))
}

// blameFromFile interprets buf as a blame document when it has rows, and as
// an exported Chrome trace otherwise. A trace's cat="blame" events carry one
// span kind's obs.SpanStat each (named by the event), so the table is rebuilt
// exactly as a live run builds it.
func blameFromFile(buf []byte, scenario string) (*report.Blame, error) {
	var probe struct {
		Title       string            `json:"title"`
		Rows        []report.BlameRow `json:"rows"`
		Notes       []string          `json:"notes"`
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Cat  string          `json:"cat"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &probe); err != nil {
		return nil, fmt.Errorf("JSON parse: %w", err)
	}
	if len(probe.Rows) > 0 {
		return &report.Blame{Title: probe.Title, Rows: probe.Rows, Notes: probe.Notes}, nil
	}
	if len(probe.TraceEvents) == 0 {
		return nil, fmt.Errorf("neither a blame document (no rows) nor a trace (no traceEvents)")
	}
	var sum obs.Summary
	for _, ev := range probe.TraceEvents {
		if ev.Ph != "X" || ev.Cat != "blame" {
			continue
		}
		sp := obs.SpanStat{Kind: ev.Name}
		if err := json.Unmarshal(ev.Args, &sp); err != nil {
			return nil, fmt.Errorf("blame event %q: %w", ev.Name, err)
		}
		sum.Spans = append(sum.Spans, sp)
	}
	b := experiment.BlameFromSummary(scenario, &sum)
	if len(b.Rows) == 0 {
		return nil, fmt.Errorf("trace has no blame events (exported without an observer summary?)")
	}
	b.Notes = []string{"recomputed offline from embedded blame events"}
	return b, nil
}
