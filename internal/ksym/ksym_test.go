package ksym

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// addrOf returns the entry address of the named symbol.
func addrOf(t *Table, name string) (uint64, bool) {
	i, ok := t.byName[name]
	if !ok {
		return 0, false
	}
	return t.syms[i].Addr, true
}

func TestGenerateContainsAllWhitelist(t *testing.T) {
	tab := Generate(1)
	for _, e := range Whitelist {
		if _, ok := addrOf(tab, e.Name); !ok {
			t.Errorf("generated table missing whitelist symbol %s", e.Name)
		}
	}
	for _, n := range idleSymbols {
		if _, ok := addrOf(tab, n); !ok {
			t.Errorf("missing idle symbol %s", n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(7), Generate(7)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	as, bs := a.Symbols(), b.Symbols()
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("symbol %d differs: %v vs %v", i, as[i], bs[i])
		}
	}
}

func TestGenerateDifferentSeedsDifferentLayout(t *testing.T) {
	a, b := Generate(1), Generate(2)
	same := 0
	for _, s := range a.Symbols() {
		if addr, ok := addrOf(b, s.Name); ok && addr == s.Addr {
			same++
		}
	}
	if same == a.Len() {
		t.Fatal("different seeds produced identical layout")
	}
}

func TestSymbolsNonOverlapping(t *testing.T) {
	tab := Generate(3)
	syms := tab.Symbols()
	for i := 1; i < len(syms); i++ {
		if syms[i-1].End() > syms[i].Addr {
			t.Fatalf("overlap: %v then %v", syms[i-1], syms[i])
		}
	}
}

func TestLookupRoundTrip(t *testing.T) {
	tab := Generate(5)
	for _, s := range tab.Symbols() {
		for _, addr := range []uint64{s.Addr, s.Addr + s.Size/2, s.End() - 1} {
			got, ok := tab.Lookup(addr)
			if !ok {
				t.Fatalf("lookup of %#x inside %s failed", addr, s.Name)
			}
			if got.Name != s.Name {
				t.Fatalf("lookup(%#x)=%s, want %s", addr, got.Name, s.Name)
			}
		}
	}
}

func TestLookupMisses(t *testing.T) {
	tab := Generate(5)
	if _, ok := tab.Lookup(KernelBase - 1); ok {
		t.Fatal("lookup below kernel base should fail")
	}
	last := tab.Symbols()[tab.Len()-1]
	if _, ok := tab.Lookup(last.End()); ok {
		t.Fatal("lookup past last symbol should fail")
	}
	if _, ok := tab.Lookup(UserRIP); ok {
		t.Fatal("user RIP should not resolve")
	}
}

func TestInnerAddrInsideFunction(t *testing.T) {
	tab := Generate(5)
	for _, e := range Whitelist {
		addr := tab.InnerAddr(e.Name)
		s, ok := tab.Lookup(addr)
		if !ok || s.Name != e.Name {
			t.Fatalf("InnerAddr(%s)=%#x resolves to %q", e.Name, addr, s.Name)
		}
		if addr == s.Addr {
			t.Fatalf("InnerAddr(%s) should be strictly inside", e.Name)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]Class{
		"native_flush_tlb_others":          ClassTLB,
		"smp_call_function_many":           ClassIPI,
		"__raw_spin_unlock":                ClassSpinlock,
		"native_queued_spin_lock_slowpath": ClassSpinWait,
		"ttwu_do_activate":                 ClassSched,
		"rwsem_wake":                       ClassRWSem,
		"irq_enter":                        ClassIRQ,
		"default_idle":                     ClassIdle,
		"vfs_read":                         ClassNone,
		"totally_unknown":                  ClassNone,
	}
	for name, want := range cases {
		if got := Classify(name); got != want {
			t.Errorf("Classify(%s)=%v, want %v", name, got, want)
		}
	}
}

func TestClassCritical(t *testing.T) {
	if ClassNone.Critical() || ClassIdle.Critical() || ClassSpinWait.Critical() {
		t.Fatal("none/idle/spinwait must not be critical")
	}
	for _, c := range []Class{ClassSpinlock, ClassTLB, ClassIPI, ClassIRQ, ClassSched, ClassRWSem} {
		if !c.Critical() {
			t.Fatalf("%v should be critical", c)
		}
	}
}

func TestClassifyAddr(t *testing.T) {
	tab := Generate(9)
	if got := tab.ClassifyAddr(tab.InnerAddr("flush_tlb_all")); got != ClassTLB {
		t.Fatalf("got %v", got)
	}
	if got := tab.ClassifyAddr(UserRIP); got != ClassNone {
		t.Fatalf("user addr classified %v", got)
	}
}

func TestNameOf(t *testing.T) {
	tab := Generate(9)
	if tab.NameOf(UserRIP) != "[user]" {
		t.Fatal("user addr should name [user]")
	}
	addr, ok := addrOf(tab, "schedule")
	if !ok {
		t.Fatal("schedule missing")
	}
	if tab.NameOf(addr) != "schedule" {
		t.Fatal("NameOf entry address failed")
	}
	last := tab.Symbols()[tab.Len()-1]
	if tab.NameOf(last.End()+100) != "?" {
		t.Fatal("unknown kernel addr should name ?")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	tab := Generate(11)
	var buf bytes.Buffer
	if err := tab.Format(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != tab.Len() {
		t.Fatalf("parsed %d symbols, want %d", parsed.Len(), tab.Len())
	}
	// Entry addresses and names survive; sizes are re-derived from gaps so
	// they may only grow (gap absorption), never shrink below the original.
	for _, s := range tab.Symbols() {
		addr, ok := addrOf(parsed, s.Name)
		if !ok || addr != s.Addr {
			t.Fatalf("symbol %s lost in round trip", s.Name)
		}
		ps, _ := parsed.Lookup(addr)
		if ps.Size < s.Size && ps.Name != tab.Symbols()[tab.Len()-1].Name {
			t.Fatalf("parsed size of %s shrank: %d < %d", s.Name, ps.Size, s.Size)
		}
	}
}

// TestFormatMatchesFmt checks Format's hand-built lines against the
// "%016x %c %s\n" form it replaces, on generated maps and on addresses
// with leading zeros and all sixteen digits set.
func TestFormatMatchesFmt(t *testing.T) {
	tabs := []*Table{newTable([]Symbol{
		{Addr: 0, Type: 't', Name: "zero"},
		{Addr: 0xabc, Type: 'd', Name: "short"},
		{Addr: 0x0123456789abcdef, Type: 'R', Name: "digits"},
		{Addr: 1<<64 - 1, Type: 'T', Name: "max"},
	})}
	for seed := uint64(1); seed <= 5; seed++ {
		tabs = append(tabs, Generate(seed))
	}
	for _, tab := range tabs {
		var got, want bytes.Buffer
		if err := tab.Format(&got); err != nil {
			t.Fatal(err)
		}
		for _, s := range tab.Symbols() {
			fmt.Fprintf(&want, "%016x %c %s\n", s.Addr, s.Type, s.Name)
		}
		if got.String() != want.String() {
			t.Fatalf("Format:\n%s\nfmt:\n%s", got.String(), want.String())
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"zzzz T foo\n",
		"ffffffff81000000 TT foo\n",
		"ffffffff81000000 T\n",
		"",
	}
	for _, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\nffffffff81000000 T alpha\nffffffff81000100 T beta\n"
	tab, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("parsed %d symbols", tab.Len())
	}
	s, ok := tab.Lookup(KernelBase + 0x50)
	if !ok || s.Name != "alpha" || s.Size != 0x100 {
		t.Fatalf("derived size wrong: %+v ok=%v", s, ok)
	}
}

// Property: every address inside any generated symbol resolves back to it.
func TestPropertyLookupContainment(t *testing.T) {
	tab := Generate(13)
	syms := tab.Symbols()
	f := func(symIdx uint16, off uint16) bool {
		s := syms[int(symIdx)%len(syms)]
		addr := s.Addr + uint64(off)%s.Size
		got, ok := tab.Lookup(addr)
		return ok && got.Name == s.Name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIsKernelAddr(t *testing.T) {
	if IsKernelAddr(UserRIP) {
		t.Fatal("user RIP flagged as kernel")
	}
	if !IsKernelAddr(KernelBase) {
		t.Fatal("kernel base not flagged")
	}
}

func TestClassString(t *testing.T) {
	if ClassTLB.String() != "tlb" || Class(99).String() != "class(99)" {
		t.Fatal("Class.String broken")
	}
}
