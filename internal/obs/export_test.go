package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// sampleRecords builds a minimal but representative scheduling timeline:
// two run intervals (one closed by preemption, one left open), a wake
// instant and a host-row pool resize.
func sampleRecords() []trace.Record {
	const u = simtime.Microsecond
	return []trace.Record{
		{Time: 0, Kind: trace.KindWake, Dom: 0, VCPU: 0, PCPU: -1},
		{Time: 1 * u, Kind: trace.KindSchedule, Dom: 0, VCPU: 0, PCPU: 2, Arg0: 1},
		{Time: 30 * u, Kind: trace.KindPreempt, Dom: 0, VCPU: 0, PCPU: 2},
		{Time: 31 * u, Kind: trace.KindSchedule, Dom: 1, VCPU: 3, PCPU: 2},
		{Time: 40 * u, Kind: trace.KindPoolResize, Dom: -1, VCPU: -1, PCPU: -1, Arg0: 2},
		{Time: 45 * u, Kind: trace.KindVIPI, Dom: 1, VCPU: 3, PCPU: 2, Arg0: 9},
		// dom1/vcpu3's run is still open at the end of the ring.
	}
}

func TestWriteChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	meta := ExportMeta{DomainNames: map[int16]string{0: "gmake", 1: "swaptions"}}
	if err := WriteChromeTrace(&buf, sampleRecords(), meta); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported trace does not validate: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("exported trace has no events")
	}

	// The export must also be plain-JSON decodable (what Perfetto does).
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	var complete, meta2, named int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Errorf("complete event %q has negative dur %v", ev.Name, ev.Dur)
			}
		case "M":
			meta2++
			if strings.Contains(string(ev.Args), "gmake") || strings.Contains(string(ev.Args), "swaptions") {
				named++
			}
		}
	}
	// Two schedule records -> two run slices (the open one closed at ring end).
	if complete != 2 {
		t.Errorf("complete (X) events = %d, want 2", complete)
	}
	if named == 0 {
		t.Error("no metadata event carries the domain names")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, ExportMeta{}); err != nil {
		t.Fatal(err)
	}
	// An empty ring still yields a syntactically valid document...
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v", err)
	}
	// ...but fails validation, which demands at least one slice.
	if _, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("ValidateChromeTrace accepted an empty trace")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      "][",
		"no unit":       `{"traceEvents":[{"ph":"X","pid":0,"tid":0,"ts":1,"dur":1}]}`,
		"no events":     `{"displayTimeUnit":"ns","traceEvents":[]}`,
		"event sans ph": `{"displayTimeUnit":"ns","traceEvents":[{"pid":0,"tid":0,"ts":1}]}`,
		"X sans dur":    `{"displayTimeUnit":"ns","traceEvents":[{"ph":"X","pid":0,"tid":0,"ts":1}]}`,
		"no X at all":   `{"displayTimeUnit":"ns","traceEvents":[{"ph":"i","pid":0,"tid":0,"ts":1}]}`,
		"M sans pid":    `{"displayTimeUnit":"ns","traceEvents":[{"ph":"M","name":"process_name"}]}`,
		"i sans ts":     `{"displayTimeUnit":"ns","traceEvents":[{"ph":"i","pid":0,"tid":0}]}`,
	}
	for name, doc := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validation accepted %s", name, doc)
		}
	}
}

// TestWriteChromeTraceBlameEvents: span aggregates embed as one cat="blame"
// complete event per recorded kind on the synthetic pid=-2 process, carrying
// the full stage decomposition, and the result still validates.
func TestWriteChromeTraceBlameEvents(t *testing.T) {
	var buf bytes.Buffer
	meta := ExportMeta{
		DomainNames: map[int16]string{0: "gmake"},
		Spans: []SpanStat{
			{Kind: "wake_dispatch", Count: 10, Total: 100 * simtime.Microsecond,
				P50: 5 * simtime.Microsecond, P99: 20 * simtime.Microsecond,
				Blame: "runq_wait", BlamePct: 80,
				Stages: []StageStat{
					{Name: "boost_wait", Share: 20, Total: 20 * simtime.Microsecond},
					{Name: "runq_wait", Share: 80, Total: 80 * simtime.Microsecond},
				}},
			{Kind: "disk_io"}, // zero count: must be skipped
		},
	}
	if err := WriteChromeTrace(&buf, sampleRecords(), meta); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("trace with blame events does not validate: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
			Pid  int    `json:"pid"`
			Name string `json:"name"`
			Args struct {
				Count  uint64 `json:"count"`
				Blame  string `json:"blame"`
				Stages []struct {
					Name  string  `json:"name"`
					Share float64 `json:"share_pct"`
				} `json:"stages"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var blames int
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "blame" {
			continue
		}
		blames++
		if ev.Ph != "X" || ev.Pid != blamePID {
			t.Errorf("blame event ph=%s pid=%d, want X on pid=%d", ev.Ph, ev.Pid, blamePID)
		}
		if ev.Name != "wake_dispatch" || ev.Args.Blame != "runq_wait" || ev.Args.Count != 10 {
			t.Errorf("blame event payload = %+v", ev.Args)
		}
		if len(ev.Args.Stages) != 2 || ev.Args.Stages[1].Share != 80 {
			t.Errorf("blame event stages = %+v, want the 2-stage breakdown", ev.Args.Stages)
		}
	}
	if blames != 1 {
		t.Errorf("blame events = %d, want 1 (zero-count kinds skipped)", blames)
	}
}
