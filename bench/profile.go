package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// decoder below reads only what the layer split needs — samples, their
// location stacks, the functions of each location's (inlined) lines and the
// string table — so the benchmark needs nothing outside the standard
// library.

// stack is one distinct call stack, innermost frame first, with the number
// of CPU samples that landed on it.
type stack struct {
	frames []string
	count  int64
}

// decodeProfile parses a gzipped CPU profile into its sample stacks.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string table index
		strtab  []string
	)
	err = walkFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := walkFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // location_id
					ids, err := uints(v, data)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value: [samples/count, cpu/nanoseconds]
					vals, err := uints(v, data)
					if err == nil && len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walkFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := "?"
				if i := fnName[fn]; i >= 0 && i < int64(len(strtab)) {
					name = strtab[i]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of one protobuf message: v holds a
// varint field's value, data a length-delimited field's bytes.
func walkFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// uints reads a repeated varint field given either unpacked (one value in
// v) or packed (data holds the varints).
func uints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}

// varint decodes one base-128 varint; n <= 0 reports a truncated input.
func varint(b []byte) (x uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// The layer split charges each sample to the innermost frame that belongs
// to a simulator package (internal/<layer>). Runtime and standard-library
// frames below it, such as a map lookup or an allocation, belong to the
// same layer; a sample with no simulator frame at all (GC workers, the
// scheduler) goes to "runtime". Samples in the conservation checker, the
// profiler itself or the benchmark's own code are not simulator time and
// are left out of every share.
const modulePrefix = "github.com/microslicedcore/microsliced/internal/"

// layers lists every package the simulator runs, in report order.
var layers = []string{
	"simtime", "hv", "trace", "core", "ksym", "guest", "workload", "rng",
	"vnet", "vdisk", "rivals", "obs", "metrics", "fault", "recovery",
	"experiment", "runtime",
}

// fnGroups are the cumulative function groups: a sample counts toward a
// group when any frame of its stack matches one of the group's substrings.
var fnGroups = []struct {
	metric string
	match  []string
}{
	{"simtime.heap_pct", []string{"simtime.eventHeap.", "simtime.(*eventHeap).", "simtime.eventLess"}},
	{"trace.emit_pct", []string{"hv.(*Hypervisor).emit", "trace.(*Buffer).Emit"}},
	{"core.classify_pct", []string{"core.(*Controller).classify", "core.(*Controller).accelerateSiblings"}},
	{"runtime.gc_pct", []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.gcStart", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject",
	}},
	{"runtime.malloc_pct", []string{"runtime.mallocgc"}},
	{"runtime.map_pct", []string{
		"runtime.mapaccess", "runtime.mapassign", "runtime.mapdelete",
		"runtime.mapiter", "runtime.makemap", "internal/runtime/maps.",
	}},
}

// split is the per-layer attribution of one profile.
type split struct {
	samples int64            // simulator samples (the denominator)
	layer   map[string]int64 // layer → samples charged to it
	group   map[string]int64 // fnGroups metric → samples
}

// pct returns n as a percentage of the simulator samples.
func (s *split) pct(n int64) float64 {
	if s.samples == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.samples)
}

func attribute(stacks []stack) *split {
	sp := &split{layer: map[string]int64{}, group: map[string]int64{}}
	for _, st := range stacks {
		layer, ok := layerOf(st.frames)
		if !ok {
			continue
		}
		sp.samples += st.count
		sp.layer[layer] += st.count
		for _, g := range fnGroups {
			if anyFrame(st.frames, g.match) {
				sp.group[g.metric] += st.count
			}
		}
	}
	return sp
}

// layerOf names the layer a stack is charged to, or reports false for a
// sample that is not simulator time.
func layerOf(frames []string) (string, bool) {
	for _, f := range frames {
		if strings.HasPrefix(f, modulePrefix+"check.") || strings.HasPrefix(f, "runtime/pprof.") {
			return "", false
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "", false
		}
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i], true
			}
		}
	}
	return "runtime", true
}

func anyFrame(frames, match []string) bool {
	for _, f := range frames {
		for _, m := range match {
			if strings.Contains(f, m) {
				return true
			}
		}
	}
	return false
}
