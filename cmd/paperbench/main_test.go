package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run the test binary as paperbench itself.
func TestMain(m *testing.M) {
	if os.Getenv("PAPERBENCH_AS_MAIN") == "1" {
		os.Args = append([]string{"paperbench"}, strings.Fields(os.Getenv("PAPERBENCH_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRunRejectsUnknownName: a misspelt -run name exits non-zero and lists
// the valid names instead of running nothing and exiting 0.
func TestRunRejectsUnknownName(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PAPERBENCH_AS_MAIN=1", "PAPERBENCH_ARGS=-run table1,tabel2 -seconds 0.01")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("paperbench -run tabel2: err %v, want a non-zero exit\n%s", err, out)
	}
	for _, want := range []string{`"tabel2"`, "table2", "fig9", "serve"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output does not name %s:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "running table1") {
		t.Errorf("ran an experiment before rejecting the list:\n%s", out)
	}
}
