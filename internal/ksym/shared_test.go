package ksym

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestSharedTablesAllocFree checks the shared symbol tables: one table and
// one System.map per seed, one parse per distinct blob, and warm calls
// that allocate nothing.
func TestSharedTablesAllocFree(t *testing.T) {
	t.Run("same seed same table", func(t *testing.T) {
		const seed = 1 << 40 // a seed no other test uses
		const workers = 8
		got := make([]*Table, workers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = Generate(seed)
			}()
		}
		wg.Wait()
		for i, tab := range got {
			if tab != got[0] {
				t.Fatalf("goroutine %d got table %p, goroutine 0 got %p", i, tab, got[0])
			}
		}
		if Generate(seed) != got[0] {
			t.Fatal("a later call built a second table")
		}
		if a := testing.AllocsPerRun(20, func() { Generate(seed) }); a != 0 {
			t.Fatalf("warm Generate allocates %v objects", a)
		}
		if fresh := generate(seed); !equalSymbols(fresh, got[0]) {
			t.Fatal("the shared table differs from a fresh build")
		}
	})

	t.Run("system map equals Format", func(t *testing.T) {
		tab := Generate(3)
		blob := tab.SystemMap()
		var want bytes.Buffer
		for _, s := range tab.Symbols() {
			fmt.Fprintf(&want, "%016x %c %s\n", s.Addr, s.Type, s.Name)
		}
		if !bytes.Equal(blob, want.Bytes()) {
			t.Fatalf("SystemMap:\n%s\nfmt:\n%s", blob, want.Bytes())
		}
		var got bytes.Buffer
		if err := tab.Format(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, got.Bytes()) {
			t.Fatal("SystemMap differs from Format's output")
		}
		if &tab.SystemMap()[0] != &blob[0] {
			t.Fatal("SystemMap formatted the map twice")
		}
		if a := testing.AllocsPerRun(20, func() { tab.SystemMap() }); a != 0 {
			t.Fatalf("warm SystemMap allocates %v objects", a)
		}
	})

	t.Run("shared parse matches Parse", func(t *testing.T) {
		for _, seed := range []uint64{1, 2, 21} {
			blob := Generate(seed).SystemMap()
			tab, classes, err := ParseShared(blob)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Parse(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			if !equalSymbols(tab, fresh) {
				t.Fatalf("seed %d: shared parse symbols differ from Parse", seed)
			}
			want := fresh.classes()
			if len(classes) != len(want) {
				t.Fatalf("seed %d: %d classes, want %d", seed, len(classes), len(want))
			}
			for i := range want {
				if classes[i] != want[i] {
					t.Fatalf("seed %d: symbol %d classed %v, want %v", seed, i, classes[i], want[i])
				}
			}
			last := fresh.At(fresh.Len() - 1)
			for addr := fresh.At(0).Addr - 64; addr < last.End()+64; addr += 4 {
				if got, want := tab.Index(addr), fresh.Index(addr); got != want {
					t.Fatalf("seed %d: Index(%#x) = %d, Parse's table says %d", seed, addr, got, want)
				}
			}
			again, againCls, err := ParseShared(bytes.Clone(blob))
			if err != nil || again != tab || &againCls[0] != &classes[0] {
				t.Fatalf("seed %d: a copy of the same bytes parsed again", seed)
			}
			if a := testing.AllocsPerRun(20, func() { ParseShared(blob) }); a != 0 {
				t.Fatalf("seed %d: warm ParseShared allocates %v objects", seed, a)
			}
		}
	})

	t.Run("one byte differs, own entry", func(t *testing.T) {
		blob := Generate(5).SystemMap()
		tab, _, err := ParseShared(blob)
		if err != nil {
			t.Fatal(err)
		}
		// Change the last digit of the first address: same length, a
		// different table.
		other := bytes.Clone(blob)
		other[15] ^= 0x01
		otherTab, _, err := ParseShared(other)
		if err != nil {
			t.Fatal(err)
		}
		if otherTab == tab {
			t.Fatal("a blob differing in one byte got the cached table")
		}
		if otherTab.At(0).Addr == tab.At(0).Addr {
			t.Fatalf("first address %#x, want it changed", otherTab.At(0).Addr)
		}
		if again, _, _ := ParseShared(blob); again != tab {
			t.Fatal("the original blob lost its entry")
		}
		if !bytes.Equal(blob, Generate(5).SystemMap()) {
			t.Fatal("the shared System.map was modified")
		}
	})

	t.Run("malformed blob, same error", func(t *testing.T) {
		blob := []byte("ffffffff81000000 T ok\nzzzz T bad\n")
		_, _, first := ParseShared(blob)
		if first == nil {
			t.Fatal("malformed blob parsed")
		}
		_, want := Parse(bytes.NewReader(blob))
		for i := 0; i < 3; i++ {
			tab, classes, err := ParseShared(blob)
			if err == nil || err.Error() != first.Error() || err.Error() != want.Error() {
				t.Fatalf("call %d: error %v, want %v", i, err, want)
			}
			if tab != nil || classes != nil {
				t.Fatalf("call %d: a table came with the error", i)
			}
		}
	})

	t.Run("bounded", func(t *testing.T) {
		const max = 3
		tc := tableCache{max: max}
		pc := parseCache{max: max}
		for seed := uint64(1); seed <= 2*max; seed++ {
			tab := tc.generate(seed)
			if !equalSymbols(tab, generate(seed)) {
				t.Fatalf("seed %d: table differs from a fresh build", seed)
			}
			ptab, _, err := pc.parse(tab.SystemMap())
			fresh, _ := Parse(bytes.NewReader(tab.SystemMap()))
			if err != nil || !equalSymbols(ptab, fresh) {
				t.Fatalf("seed %d: parse past the bound: %v", seed, err)
			}
			if n := len(tc.bySeed); n != min(int(seed), max) {
				t.Fatalf("after seed %d: %d tables cached, want %d", seed, n, min(int(seed), max))
			}
			if n := len(pc.byMap); n != min(int(seed), max) {
				t.Fatalf("after seed %d: %d parses cached, want %d", seed, n, min(int(seed), max))
			}
		}
		if tc.generate(1) != tc.generate(1) {
			t.Fatal("a seed cached before the bound lost its entry")
		}
		if tc.generate(2*max) == tc.generate(2*max) {
			t.Fatal("a seed past the bound was cached")
		}
	})
}

// equalSymbols reports whether a and b hold the same symbols.
func equalSymbols(a, b *Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}
