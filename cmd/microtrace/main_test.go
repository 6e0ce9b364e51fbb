package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/obs"
)

// TestScenarioAttachesDisk: fileserver needs a block device; the scenario
// both subcommands run gets one from experiment.Run, so a short co-run
// completes instead of panicking in the guest's disk path.
func TestScenarioAttachesDisk(t *testing.T) {
	sc := scenario{vms: "fileserver,swaptions", mode: "dynamic", cores: 1, seconds: 0.05, pcpus: 12, vcpus: 12, ring: 1 << 12}
	s, err := sc.setup()
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.VM("fileserver-0").Units == 0 {
		t.Fatal("fileserver-0 completed no work")
	}
}

// TestScenarioRejectsUnknownWorkload: a misspelt -vms entry is an error from
// the flag lowering itself, so export fails before it creates its file.
func TestScenarioRejectsUnknownWorkload(t *testing.T) {
	sc := scenario{vms: "gmake,swaptoins", mode: "off", cores: 1, seconds: 0.05, pcpus: 12, vcpus: 12, ring: 1 << 12}
	if _, err := sc.setup(); err == nil || !strings.Contains(err.Error(), "swaptoins") {
		t.Fatalf("setup() error = %v, want one naming swaptoins", err)
	}
}

// TestExportIsReproducible: two exports of one seeded run are the same
// bytes. The run ends with a vCPU on every pCPU, so the export closes a
// dozen open run intervals at the end of the trace.
func TestExportIsReproducible(t *testing.T) {
	sc := scenario{vms: "gmake,swaptions", mode: "dynamic", cores: 1, seconds: 0.05, pcpus: 12, vcpus: 12, ring: 1 << 12}
	export := func() []byte {
		s, err := sc.setup()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		s.Obs = &obs.Config{}
		s.TraceExport = &buf
		if _, err := experiment.Run(s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	for i := 0; i < 3; i++ {
		if again := export(); !bytes.Equal(first, again) {
			t.Fatalf("export %d differs from the first (%d and %d bytes)", i+2, len(again), len(first))
		}
	}
}
