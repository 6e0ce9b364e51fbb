package microsliced

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScenario is the fixed-seed scenario pinned by the golden file: a
// 2:1 consolidation under the dynamic mechanism, short enough for CI.
func goldenScenario() Scenario {
	return Scenario{
		VMs: []VM{
			{App: "exim", Seed: 11},
			{App: "swaptions", Seed: 22},
		},
		Mode:      Dynamic,
		Seconds:   0.3,
		Telemetry: &TelemetryConfig{},
	}
}

// TestTelemetryGolden pins the wake→dispatch latency attribution of a
// fixed-seed scenario. The simulation is deterministic, so these quantiles
// must reproduce bit-for-bit; any drift means either scheduling or the
// observation layer changed behaviour. Refresh with: go test -run
// TestTelemetryGolden -update .
func TestTelemetryGolden(t *testing.T) {
	res, err := Simulate(goldenScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("Results.Telemetry is nil despite Scenario.Telemetry being set")
	}
	wd := res.Telemetry.Span("wake_dispatch")
	if wd.Count == 0 {
		t.Fatal("no wake_dispatch spans recorded")
	}
	type golden struct {
		WakeDispatch SpanStats            `json:"wake_dispatch"`
		Spans        map[string]SpanStats `json:"spans"`
	}
	got := golden{WakeDispatch: wd, Spans: res.Telemetry.Spans}

	path := filepath.Join("testdata", "telemetry_golden.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want golden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if got.WakeDispatch != want.WakeDispatch {
		t.Errorf("wake_dispatch drifted:\n got %+v\nwant %+v", got.WakeDispatch, want.WakeDispatch)
	}
	for kind, w := range want.Spans {
		if g := got.Spans[kind]; g != w {
			t.Errorf("span %s drifted:\n got %+v\nwant %+v", kind, g, w)
		}
	}
	for kind := range got.Spans {
		if _, ok := want.Spans[kind]; !ok {
			t.Errorf("span %s recorded but absent from golden file (run -update?)", kind)
		}
	}
}

// TestTelemetryTraceJSON checks the public TraceJSON hook produces a
// non-trivial, decodable Chrome trace-event document.
func TestTelemetryTraceJSON(t *testing.T) {
	s := goldenScenario()
	s.Seconds = 0.1
	var buf bytes.Buffer
	s.TraceJSON = &buf
	if _, err := Simulate(s); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("TraceJSON output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace doc unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	var slices int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Error("trace has no complete (X) scheduling slices")
	}
}

// TestTelemetryFlightRecorder drives a fault-injected scenario and checks
// the flight recorder dumps to disk.
func TestTelemetryFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	s := Scenario{
		VMs:       []VM{{App: "swaptions", Seed: 11}},
		Seconds:   0.5,
		Faults:    &FaultPlan{Seed: 7, OfflinePCPUs: 2},
		Telemetry: &TelemetryConfig{FlightDir: dir, Label: "golden"},
	}
	res, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("no telemetry")
	}
	if res.Telemetry.FlightDumps == 0 {
		t.Fatal("fault injection triggered no flight dumps")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-golden-*.json"))
	if len(files) != res.Telemetry.FlightDumps {
		t.Errorf("flight files on disk = %d, want %d", len(files), res.Telemetry.FlightDumps)
	}
}

// TestTelemetryFlightWriteErrorReported: a flight dump that cannot be
// written fails the run instead of vanishing. The dump directory sits under
// a regular file, so creating it fails.
func TestTelemetryFlightWriteErrorReported(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := Scenario{
		VMs:       []VM{{App: "swaptions", Seed: 11}},
		Seconds:   0.5,
		Faults:    &FaultPlan{Seed: 7, OfflinePCPUs: 2},
		Telemetry: &TelemetryConfig{FlightDir: filepath.Join(blocker, "dumps"), Label: "lost"},
	}
	_, err := Simulate(s)
	var pathErr *fs.PathError
	if !errors.As(err, &pathErr) {
		t.Fatalf("Simulate error = %v, want the flight dump's *fs.PathError", err)
	}
	if !strings.Contains(err.Error(), "flight") {
		t.Errorf("error %q does not name the flight recorder", err)
	}
}

// TestTelemetryDeterministic runs the golden scenario twice and requires an
// identical read-out, the property the golden file relies on.
func TestTelemetryDeterministic(t *testing.T) {
	a, err := Simulate(goldenScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(goldenScenario())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Telemetry)
	jb, _ := json.Marshal(b.Telemetry)
	if !bytes.Equal(ja, jb) {
		t.Errorf("telemetry not deterministic:\n%s\nvs\n%s", ja, jb)
	}
}
