package main

import (
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/experiment"
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
