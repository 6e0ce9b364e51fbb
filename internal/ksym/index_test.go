package ksym

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/rng"
)

// refResolve is the detector's original resolution path, kept as the
// reference that Index and Classes are checked against: sort.Search with a
// closure over the symbols, then a by-name class lookup.
func refResolve(t *Table, addr uint64) (int, Class, string) {
	i := sort.Search(len(t.syms), func(i int) bool { return t.syms[i].Addr > addr })
	if i == 0 {
		return -1, ClassNone, ""
	}
	s := t.syms[i-1]
	if addr >= s.End() {
		return -1, ClassNone, ""
	}
	return i - 1, Classify(s.Name), s.Name
}

// indexTables returns the tables the differential test runs over: twenty
// generated kernels, one parsed back from System.map text, and one parsed
// map with aliases and a whitelisted name listed at two addresses.
func indexTables(t *testing.T) map[string]*Table {
	t.Helper()
	tabs := map[string]*Table{}
	for seed := uint64(1); seed <= 20; seed++ {
		tabs[fmt.Sprintf("generate/%d", seed)] = Generate(seed)
	}
	var buf bytes.Buffer
	if err := Generate(21).Format(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tabs["parsed/21"] = parsed
	aliased, err := Parse(strings.NewReader(`ffffffff81000000 T vfs_read
ffffffff81000100 T _raw_spin_lock
ffffffff81000100 t __raw_spin_lock_local
ffffffff81000200 t __raw_spin_unlock_local
ffffffff81000200 T __raw_spin_unlock
ffffffff81000300 T flush_tlb_all
ffffffff81000400 T default_idle
ffffffff81000500 t flush_tlb_all
ffffffff81000600 T schedule
`))
	if err != nil {
		t.Fatal(err)
	}
	tabs["parsed/aliased"] = aliased
	return tabs
}

// TestIndexMatchesReference checks Index, Classes and At against the
// reference resolution at every symbol's start, start+8, end-1 and end,
// at every address of every gap between symbols, and at 10k random kernel
// and user addresses per table.
func TestIndexMatchesReference(t *testing.T) {
	r := rng.New(2024)
	for name, tab := range indexTables(t) {
		classes := tab.Classes()
		if len(classes) != tab.Len() {
			t.Fatalf("%s: %d classes for %d symbols", name, len(classes), tab.Len())
		}
		check := func(addr uint64) {
			wantI, wantC, wantN := refResolve(tab, addr)
			gotI, gotC, gotN := tab.Index(addr), ClassNone, ""
			if gotI >= 0 {
				gotC, gotN = classes[gotI], tab.At(gotI).Name
			}
			if gotI != wantI || gotC != wantC || gotN != wantN {
				t.Fatalf("%s: %#x resolves to (%d, %v, %q), reference (%d, %v, %q)",
					name, addr, gotI, gotC, gotN, wantI, wantC, wantN)
			}
		}
		syms := tab.Symbols()
		for i, s := range syms {
			check(s.Addr)
			check(s.Addr + 8)
			check(s.End() - 1)
			check(s.End())
			if i+1 < len(syms) {
				for a := s.End(); a < syms[i+1].Addr; a++ {
					check(a)
				}
			}
		}
		last := syms[len(syms)-1].End()
		for i := 0; i < 10000; i++ {
			check(KernelBase - 64 + uint64(r.Intn(int(last-KernelBase)+4160)))
			check(uint64(r.Intn(1 << 40)))
		}
	}
}

// TestClassesMatchClassify: every symbol's class is the class of its name,
// on tables with and without duplicate names.
func TestClassesMatchClassify(t *testing.T) {
	for name, tab := range indexTables(t) {
		classes := tab.Classes()
		critical := 0
		for i, s := range tab.Symbols() {
			if classes[i] != Classify(s.Name) {
				t.Fatalf("%s: %s classed %v, Classify says %v", name, s.Name, classes[i], Classify(s.Name))
			}
			if classes[i] != ClassNone {
				critical++
			}
		}
		if critical == 0 {
			t.Fatalf("%s: no classified symbol", name)
		}
	}
}

// TestParseAliasLastListedWins is the regression for alias order: of
// several names at one address, the one listed last in the file resolves,
// whatever the sort does with equal addresses. The map lists a hundred
// alias pairs in descending address order so the sort must move every
// line; an unstable sort swapped pairs and resolved the wrong name.
func TestParseAliasLastListedWins(t *testing.T) {
	var b strings.Builder
	for i := 99; i >= 0; i-- {
		addr := KernelBase + uint64(i)*0x100
		if i%2 == 0 {
			fmt.Fprintf(&b, "%016x t local_alias_%d\n%016x T _raw_spin_lock_%d\n", addr, i, addr, i)
		} else {
			fmt.Fprintf(&b, "%016x T _raw_spin_lock_%d\n%016x t local_alias_%d\n", addr, i, addr, i)
		}
	}
	tab, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		want := fmt.Sprintf("_raw_spin_lock_%d", i)
		if i%2 == 1 {
			want = fmt.Sprintf("local_alias_%d", i)
		}
		addr := KernelBase + uint64(i)*0x100 + 8
		if got := tab.NameOf(addr); got != want {
			t.Fatalf("%#x resolves to %s, want the last-listed alias %s", addr, got, want)
		}
	}
}

// TestParseTwoAliases: the two-alias case of a real System.map —
// _raw_spin_lock beside a local alias — classifies by whichever name the
// file lists last.
func TestParseTwoAliases(t *testing.T) {
	const lock = "ffffffff81000000 T _raw_spin_lock\n"
	const alias = "ffffffff81000000 t _raw_spin_lock_alias\n"
	const next = "ffffffff81000100 T schedule\n"
	for in, want := range map[string]Class{
		lock + alias + next: ClassNone,
		alias + lock + next: ClassSpinWait,
	} {
		tab, err := Parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.ClassifyAddr(KernelBase + 8); got != want {
			t.Fatalf("%q: class %v, want %v", in, got, want)
		}
	}
}
