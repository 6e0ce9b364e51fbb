package ksym

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// parseReference is the line-scanner parser Parse replaced: a
// bufio.Scanner, strings.Fields and a sort.SliceStable. It allocates per
// line, but its behaviour is the specification Parse must match.
func parseReference(r io.Reader) (*Table, error) {
	sc := bufio.NewScanner(r)
	var syms []Symbol
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("ksym: line %d: want 3 fields, got %d", lineno, len(fields))
		}
		addr, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("ksym: line %d: bad address %q: %v", lineno, fields[0], err)
		}
		if len(fields[1]) != 1 {
			return nil, fmt.Errorf("ksym: line %d: bad type %q", lineno, fields[1])
		}
		syms = append(syms, Symbol{Addr: addr, Type: fields[1][0], Name: fields[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ksym: read: %v", err)
	}
	if len(syms) == 0 {
		return nil, fmt.Errorf("ksym: empty symbol table")
	}
	sort.SliceStable(syms, func(i, j int) bool { return syms[i].Addr < syms[j].Addr })
	for i := range syms {
		if i+1 < len(syms) {
			syms[i].Size = syms[i+1].Addr - syms[i].Addr
		} else {
			syms[i].Size = defaultLastSize
		}
	}
	return newTable(syms), nil
}

// sameParse fails t unless Parse and parseReference, each reading the
// stream mk returns, agree: the same error text, or tables with the same
// symbols in the same order and the same name index.
func sameParse(t *testing.T, what string, mk func() io.Reader) {
	t.Helper()
	got, gerr := Parse(mk())
	want, werr := parseReference(mk())
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !reflect.DeepEqual(got.syms, want.syms) {
		t.Fatalf("%s: symbols\n%v\nreference\n%v", what, got.syms, want.syms)
	}
	if !reflect.DeepEqual(got.byName, want.byName) {
		t.Fatalf("%s: name index %v, reference %v", what, got.byName, want.byName)
	}
}

// parseSeeds are the inputs of the garbage, comment and alias tests, a
// generated map, and the corners of line and field splitting: CRLF ends,
// Unicode and invalid UTF-8 around fields, a last line without a newline,
// and lines either side of the scanner's token limit.
func parseSeeds() []string {
	var gen bytes.Buffer
	if err := Generate(7).Format(&gen); err != nil {
		panic(err)
	}
	var aliases strings.Builder
	for i := 99; i >= 0; i-- {
		addr := KernelBase + uint64(i)*0x100
		fmt.Fprintf(&aliases, "%016x t local_alias_%d\n%016x T _raw_spin_lock_%d\n", addr, i, addr, i)
	}
	const lock = "ffffffff81000000 T _raw_spin_lock\n"
	const alias = "ffffffff81000000 t _raw_spin_lock_alias\n"
	const next = "ffffffff81000100 T schedule\n"
	long := strings.Repeat("x", bufio.MaxScanTokenSize)
	return []string{
		"zzzz T foo\n",
		"ffffffff81000000 TT foo\n",
		"ffffffff81000000 T\n",
		"",
		"# comment\n\nffffffff81000000 T alpha\nffffffff81000100 T beta\n",
		lock + alias + next,
		alias + lock + next,
		aliases.String(),
		gen.String(),
		"ffffffff81000100 T b\r\nffffffff81000000 t a\r\n",
		"  ffffffff81000000\tT \v alpha \f\n\n#\n ffffffff81000040 D beta",
		"ffffffff81000000 T\u0085alpha \nffffffff81000010 T b\xffeta\n",
		"ffffffff81000000 T a b\n",
		"0x10 T a\n",
		"10000000000000000 T a\n",
		"ffffffff81000000 T alpha\n" + long[1:] + "\n",
		"ffffffff81000000 T alpha\n" + long[1:],
		"ffffffff81000000 T alpha\n" + long + "\nzzzz",
		"zzzz T foo\n" + long,
	}
}

// TestParseMatchesReference runs every seed through both parsers whole,
// one byte per Read, and with a read error after the last byte.
func TestParseMatchesReference(t *testing.T) {
	for i, in := range parseSeeds() {
		checkAgainstReference(t, fmt.Sprintf("seed %d", i), in)
	}
}

func checkAgainstReference(t *testing.T, what, in string) {
	t.Helper()
	sameParse(t, what, func() io.Reader { return strings.NewReader(in) })
	sameParse(t, what+" byte by byte", func() io.Reader {
		return iotest.OneByteReader(strings.NewReader(in))
	})
	sameParse(t, what+" then a read error", func() io.Reader {
		return io.MultiReader(strings.NewReader(in), iotest.ErrReader(errors.New("disk on fire")))
	})
}

// FuzzParseAgainstReference: on any input Parse returns exactly what the
// line-scanner reference returns.
func FuzzParseAgainstReference(f *testing.F) {
	for _, in := range parseSeeds() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkAgainstReference(t, fmt.Sprintf("%q", in), in)
	})
}

// TestParseAllocsPerLineFree: Parse allocates the text, the symbol slice,
// the table and its name map, and nothing per line; the reference takes
// about two allocations a line.
func TestParseAllocsPerLineFree(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(3).Format(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Parse(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if lines := bytes.Count(text, []byte("\n")); allocs > 16 {
		t.Fatalf("%v allocations to parse %d lines, want at most 16", allocs, lines)
	}
}
