// Command bench is the simulator's host-time benchmark. It runs four
// closed-loop scenario grids (see README.md) and reports what a user of the
// simulator waits on, host milliseconds per simulated second, allocation,
// memory and set-up time, plus, in a traced run, the split of host CPU
// time across the simulator's packages.
//
//	bench -seed 1                        every workload, each in a child process
//	bench -seed 1 -trace 1               the same, traced: per-layer split
//	bench -workload serve-sweep -seed 3  one workload in this process
//	bench compare parent.json change.json
//	bench summary set1.json set2.json
//
// Build and run it from the repository root with bench/run.sh, which keeps
// the Go build cache inside the checkout.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "summary":
			os.Exit(summaryMain(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wlName := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Uint64("seed", 1, "benchmark seed: every VM, serve and fault seed after round 0 derives from it")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload run")
	traceFlag := fs.Int("trace", 0, "1: rerun the grid under the CPU profiler and report the per-layer split")
	runs := fs.Int("runs", 1, "without -workload: repeat every workload with seeds seed, seed+1, ...")
	jsonOut := fs.String("json", "", "without -workload: append each run's results to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see bench -h")
		os.Exit(2)
	}
	if *wlName != "" {
		wl, err := findWorkload(*wlName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		b := &bench{wl: wl, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: os.Stdout}
		if _, _, err := b.run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := runAll(*seed, *runs, *seconds, *traceFlag, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runFile is the JSON file -json appends to, and the input of compare and
// summary.
type runFile struct {
	Machine machine     `json:"machine"`
	Runs    []runRecord `json:"runs"`
}

type machine struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
	OS    string `json:"os"`
}

type runRecord struct {
	Date      string                    `json:"date"`
	Seed      uint64                    `json:"seed"`
	Trace     int                       `json:"trace"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Result *result `json:"result"`
	Detail *detail `json:"detail"`
}

// runAll runs every workload, one child process at a time, runs times.
// Each child is this binary with -workload, so a workload's peak RSS is its
// own.
func runAll(seed uint64, runs int, seconds float64, trace int, jsonOut string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for r := 0; r < runs; r++ {
		rec := runRecord{
			Date: time.Now().UTC().Format(time.RFC3339), Seed: seed + uint64(r),
			Trace: trace, Seconds: seconds, Workloads: map[string]workloadRecord{},
		}
		for _, wl := range workloads {
			wr, err := runChild(exe, wl.name, rec.Seed, seconds, trace)
			if err != nil {
				return err
			}
			rec.Workloads[wl.name] = wr
		}
		if jsonOut != "" {
			if err := appendRun(jsonOut, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// runChild runs one workload in a child process, relays its report and
// parses its detail and result lines.
func runChild(exe, name string, seed uint64, seconds float64, trace int) (workloadRecord, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return workloadRecord{}, fmt.Errorf("workload %s: %w", name, err)
	}
	var wr workloadRecord
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for i, line := range lines {
		switch {
		case i == len(lines)-1:
			wr.Result = new(result)
			if err := json.Unmarshal([]byte(line), wr.Result); err != nil {
				return wr, fmt.Errorf("workload %s: result line: %w", name, err)
			}
		case strings.HasPrefix(line, "detail "):
			wr.Detail = new(detail)
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "detail ")), wr.Detail); err != nil {
				return wr, fmt.Errorf("workload %s: detail line: %w", name, err)
			}
		default:
			fmt.Println(line)
		}
	}
	if wr.Detail == nil {
		return wr, fmt.Errorf("workload %s: no detail line", name)
	}
	return wr, nil
}

// appendRun adds rec to the run file at path, creating it with this
// machine's description if it does not exist.
func appendRun(path string, rec runRecord) error {
	var f runFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case errors.Is(err, os.ErrNotExist):
		f.Machine = describeMachine()
	default:
		return err
	}
	f.Runs = append(f.Runs, rec)
	out, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func describeMachine() machine {
	m := machine{NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(info))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func loadRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
