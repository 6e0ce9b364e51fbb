package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestMain lets a test re-run the test binary as microsim itself.
func TestMain(m *testing.M) {
	if os.Getenv("MICROSIM_AS_MAIN") == "1" {
		os.Args = append([]string{"microsim"}, strings.Fields(os.Getenv("MICROSIM_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputGolden pins microsim's stdout for a fixed dynamic co-run with a
// serving workload: work units, yield split, lock waits and the request
// read-out. Runs are deterministic, so any drift means the simulation or
// the public read-out changed. -symbols stays out: its equal-count symbols
// print in map order. Refresh with: go test ./cmd/microsim/ -run
// TestOutputGolden -update
func TestOutputGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MICROSIM_AS_MAIN=1",
		"MICROSIM_ARGS=-vms exim,swaptions -mode dynamic -seconds 0.3 -serve-rate 2000")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("microsim: %v\n%s", err, stderr.Bytes())
	}
	path := filepath.Join("testdata", "dynamic_serve.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("microsim output drifted:\n--- got\n%s--- want\n%s", got, want)
	}
}
