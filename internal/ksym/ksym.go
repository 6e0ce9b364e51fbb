// Package ksym models the guest kernel symbol table that the paper's
// hypervisor consults to classify a preempted vCPU (§4.1, §4.4).
//
// The package can generate a synthetic Linux-4.4-flavoured System.map
// (containing every critical function of the paper's Table 3 plus filler
// symbols), format it in the standard System.map text form, parse such a
// file back, resolve an instruction address to the containing function, and
// classify a function against the critical-service whitelist.
//
// The split mirrors the deployment story in the paper: the *guest* side of
// the simulator places synthetic instruction pointers inside these
// functions while executing kernel services, and the *hypervisor* side is
// only allowed to look at (RIP, System.map) — never at guest state — which
// preserves the guest-transparency property under test.
package ksym

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/microslicedcore/microsliced/internal/rng"
)

// KernelBase is the lowest text address of the synthetic kernel, matching
// the canonical x86-64 kernel text mapping.
const KernelBase uint64 = 0xffffffff81000000

// UserRIP is the sentinel instruction pointer used when a vCPU executes
// user-level code. Any address below KernelBase is user space.
const UserRIP uint64 = 0x0000000000400000

// IsKernelAddr reports whether addr lies in the kernel text mapping.
func IsKernelAddr(addr uint64) bool { return addr >= KernelBase }

// Class is the critical-service class of a kernel function, derived from
// the paper's Table 3. The hypervisor's handling differs per class (§4.2).
type Class uint8

// Critical service classes.
const (
	ClassNone     Class = iota // not a critical OS service
	ClassSpinlock              // spinlock critical sections and lock ops
	ClassTLB                   // TLB shootdown / flush paths
	ClassIPI                   // inter-processor interrupt send/wait paths
	ClassIRQ                   // interrupt entry / softirq paths
	ClassSched                 // scheduler wakeup / reschedule-IPI paths
	ClassRWSem                 // reader-writer semaphore wake paths
	ClassIdle                  // idle/halt path (never accelerated)
	ClassSpinWait              // spinning *waiting* for a lock: a criticality
	//                            signal, but not a migration target — running
	//                            a waiter on a micro core would just burn it
	ClassUserCS // registered user-level critical section (paper §4.4 extension)
)

var classNames = [...]string{
	ClassNone:     "none",
	ClassSpinlock: "spinlock",
	ClassTLB:      "tlb",
	ClassIPI:      "ipi",
	ClassIRQ:      "irq",
	ClassSched:    "sched",
	ClassRWSem:    "rwsem",
	ClassIdle:     "idle",
	ClassSpinWait: "spinwait",
	ClassUserCS:   "user-cs",
}

// String returns the lowercase class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Critical reports whether vCPUs preempted inside this class should be
// accelerated on the micro-sliced pool.
func (c Class) Critical() bool {
	return c != ClassNone && c != ClassIdle && c != ClassSpinWait
}

// UserRegion is a registered user-level critical region (paper §4.4: the
// hypervisor keeps a per-process symbol table of application-declared
// critical sections and accelerates them like kernel ones).
type UserRegion struct {
	Name string
	Lo   uint64 // inclusive
	Hi   uint64 // exclusive
}

// Contains reports whether addr lies in the region.
func (r UserRegion) Contains(addr uint64) bool { return addr >= r.Lo && addr < r.Hi }

// UserRegionIndex resolves a user-space address against a region table:
// the index of the first region containing addr, or -1.
func UserRegionIndex(regions []UserRegion, addr uint64) int {
	for i := range regions {
		if regions[i].Contains(addr) {
			return i
		}
	}
	return -1
}

// WhitelistEntry describes one critical kernel function, mirroring a row of
// the paper's Table 3.
type WhitelistEntry struct {
	Module   string
	File     string
	Name     string
	Class    Class
	Semantic string
}

// Whitelist is the critical-component table (paper Table 3), extended with
// the lock-acquire and I/O-path functions the guest model executes. Order
// follows the paper.
var Whitelist = []WhitelistEntry{
	// irq module.
	{"irq", "softirq.c", "irq_enter", ClassIRQ, "increase the preemption count"},
	{"irq", "softirq.c", "irq_exit", ClassIRQ, "decrease the preemption count"},
	{"irq", "chip.c", "handle_percpu_irq", ClassIRQ, "wakeup the irq handler"},
	{"irq", "softirq.c", "__do_softirq", ClassIRQ, "run pending softirq handlers"},
	{"irq", "e1000/e1000_main.c", "e1000_intr", ClassIRQ, "NIC hardirq handler"},
	{"irq", "net/core/dev.c", "net_rx_action", ClassIRQ, "network receive softirq"},
	// kernel/smp.
	{"kernel", "smp.c", "smp_call_function_single", ClassIPI, "send an IPI to another core"},
	{"kernel", "smp.c", "smp_call_function_many", ClassIPI, "send an IPI to other cores"},
	{"kernel", "smp.c", "smp_send_reschedule", ClassIPI, "send a reschedule IPI"},
	{"kernel", "smp.c", "generic_smp_call_function_single_interrupt", ClassIPI, "handle a call-function IPI"},
	// mm module.
	{"mm", "tlb.c", "do_flush_tlb_all", ClassTLB, "TLB flush received from remote"},
	{"mm", "tlb.c", "flush_tlb_all", ClassTLB, "flush all processes TLBs"},
	{"mm", "tlb.c", "native_flush_tlb_others", ClassTLB, "send TLB shootdown IPI to others"},
	{"mm", "tlb.c", "flush_tlb_func", ClassTLB, "invoked by the TLB shootdown IPI"},
	{"mm", "tlb.c", "flush_tlb_current_task", ClassTLB, "flush the current mm struct TLBs"},
	{"mm", "tlb.c", "flush_tlb_mm_range", ClassTLB, "flush a range of pages"},
	{"mm", "tlb.c", "flush_tlb_page", ClassTLB, "flush one page"},
	{"mm", "tlb.c", "leave_mm", ClassTLB, "invoked in the lazy tlb mode"},
	{"mm", "page_alloc.c", "get_page_from_freelist", ClassSpinlock, "try to allocate a page"},
	{"mm", "page_alloc.c", "free_one_page", ClassSpinlock, "free a page in a memory zone"},
	{"mm", "swap.c", "release_pages", ClassSpinlock, "release page cache"},
	{"mm", "vmscan.c", "shrink_page_list", ClassSpinlock, "page reclaim under lru lock"},
	// sched module.
	{"sched", "core.c", "scheduler_ipi", ClassSched, "invoked by reschedule IPI"},
	{"sched", "core.c", "resched_curr", ClassSched, "trigger the scheduler on the target CPU"},
	{"sched", "core.c", "kick_process", ClassSched, "kick a running thread to enter/exit the kernel"},
	{"sched", "core.c", "sched_ttwu_pending", ClassSched, "try to wake-up a pending thread"},
	{"sched", "core.c", "ttwu_do_activate", ClassSched, "enqueue a selected thread"},
	{"sched", "core.c", "ttwu_do_wakeup", ClassSched, "mark the task runnable and perform wakeup-preemption"},
	{"sched", "fair.c", "enqueue_task_fair", ClassSpinlock, "runqueue manipulation under rq lock"},
	// spinlock module.
	{"spinlock", "spinlock_api_smp.h", "__raw_spin_unlock", ClassSpinlock, "release a spinlock"},
	{"spinlock", "spinlock_api_smp.h", "__raw_spin_unlock_irq", ClassSpinlock, "release a spinlock & enable irq"},
	{"spinlock", "spinlock_api_smp.h", "_raw_spin_unlock_irqrestore", ClassSpinlock, "release a spinlock & restore irq"},
	{"spinlock", "spinlock_api_smp.h", "_raw_spin_unlock_bh", ClassSpinlock, "release a spinlock & enable bottom half"},
	{"spinlock", "qspinlock.c", "native_queued_spin_lock_slowpath", ClassSpinWait, "spin waiting for a queued spinlock"},
	{"spinlock", "spinlock_api_smp.h", "_raw_spin_lock", ClassSpinWait, "acquire a spinlock"},
	{"spinlock", "dcache.c", "__d_lookup", ClassSpinlock, "dentry hash lookup under d_lock"},
	// rwsem module.
	{"rwsem", "rwsem-spinlock.c", "__rwsem_do_wake", ClassRWSem, "wake up a waiter on the semaphore"},
	{"rwsem", "rwsem-xadd.c", "rwsem_wake", ClassRWSem, "wake up a waiter on the semaphore"},
}

// idleSymbols are kernel functions that mean "nothing to do"; they are in
// the map but must never be treated as critical.
var idleSymbols = []string{"default_idle", "native_safe_halt", "cpu_idle_loop"}

// fillerSymbols is a representative sample of ordinary kernel functions used
// to pad the synthetic System.map so address lookups exercise realistic
// neighbourhoods. None of these are critical.
var fillerSymbols = []string{
	"do_sys_open", "vfs_read", "vfs_write", "sys_mmap", "sys_munmap",
	"do_page_fault", "handle_mm_fault", "copy_process", "do_fork", "do_exit",
	"schedule", "pick_next_task_fair", "update_curr", "account_user_time",
	"ext4_file_read_iter", "ext4_file_write_iter", "generic_perform_write",
	"tcp_sendmsg", "tcp_recvmsg", "udp_sendmsg", "udp_recvmsg", "sock_poll",
	"ip_rcv", "ip_output", "dev_queue_xmit", "netif_receive_skb",
	"kmalloc_slab", "kmem_cache_alloc", "kmem_cache_free", "vmalloc",
	"mutex_lock", "mutex_unlock", "down_read", "up_read", "down_write",
	"futex_wait", "futex_wake", "hrtimer_interrupt", "tick_sched_timer",
	"ktime_get", "getnstimeofday64", "sys_clock_gettime", "do_nanosleep",
	"proc_reg_read", "seq_read", "pipe_read", "pipe_write", "do_select",
	"ep_poll", "sys_epoll_wait", "do_signal", "get_signal", "sys_rt_sigreturn",
	"load_elf_binary", "search_binary_handler", "mmput", "exit_mm",
	"wake_up_new_task", "finish_task_switch", "prepare_to_wait",
	"autoremove_wake_function", "bit_waitqueue", "wake_bit_function",
	"radix_tree_lookup", "find_get_page", "add_to_page_cache_lru",
	"page_cache_async_readahead", "generic_file_read_iter", "filemap_fault",
	"blk_queue_bio", "submit_bio", "generic_make_request", "bio_endio",
	"scsi_request_fn", "ata_scsi_queuecmd", "memcpy_orig", "memset_orig",
	"strncpy_from_user", "copy_user_generic_string", "csum_partial",
}

// Symbol is one entry of the kernel symbol table.
type Symbol struct {
	Addr uint64
	Size uint64
	Type byte // 'T'/'t' text, 'D'/'d' data, 'R'/'r' rodata
	Name string
}

// End returns the first address past the symbol.
func (s Symbol) End() uint64 { return s.Addr + s.Size }

// Table is an address-sorted kernel symbol table with name lookup.
type Table struct {
	syms   []Symbol
	byName map[string]int
}

// Len returns the number of symbols.
func (t *Table) Len() int { return len(t.syms) }

// Symbols returns a copy of the symbols in address order.
func (t *Table) Symbols() []Symbol {
	out := make([]Symbol, len(t.syms))
	copy(out, t.syms)
	return out
}

// At returns the symbol at index i (0 <= i < Len), in address order.
func (t *Table) At(i int) Symbol { return t.syms[i] }

// Index resolves an instruction address to the index of the containing
// symbol, or -1 when no symbol contains it. A zero-size symbol (an alias
// Parse did not pick) contains no address.
func (t *Table) Index(addr uint64) int {
	// Find the first symbol starting above addr; its predecessor is the
	// only candidate.
	lo, hi := 0, len(t.syms)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.syms[m].Addr > addr {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == 0 || addr >= t.syms[lo-1].End() {
		return -1
	}
	return lo - 1
}

// Lookup resolves an instruction address to the containing symbol.
func (t *Table) Lookup(addr uint64) (Symbol, bool) {
	i := t.Index(addr)
	if i < 0 {
		return Symbol{}, false
	}
	return t.syms[i], true
}

// Classes returns the critical-service class of every symbol, indexed like
// Index, so a detector can classify a RIP without hashing its name. The
// table does not keep the result: only the hypervisor side classifies.
func (t *Table) Classes() []Class {
	cls := make([]Class, len(t.syms))
	for i, s := range t.syms {
		cls[i] = Classify(s.Name)
	}
	return cls
}

// InnerAddr returns an address strictly inside the named function (entry+8),
// used to model an instruction pointer mid-function.
func (t *Table) InnerAddr(name string) uint64 {
	i, ok := t.byName[name]
	if !ok {
		panic("ksym: unknown symbol " + name)
	}
	s := t.syms[i]
	off := uint64(8)
	if off >= s.Size {
		off = s.Size / 2
	}
	return s.Addr + off
}

// NameOf resolves an address to a symbol name, or "?" if unknown.
func (t *Table) NameOf(addr uint64) string {
	if s, ok := t.Lookup(addr); ok {
		return s.Name
	}
	if !IsKernelAddr(addr) {
		return "[user]"
	}
	return "?"
}

// Classify returns the critical-service class of a function name.
func Classify(name string) Class {
	if c, ok := whitelistByName[name]; ok {
		return c
	}
	for _, n := range idleSymbols {
		if n == name {
			return ClassIdle
		}
	}
	return ClassNone
}

// ClassifyAddr resolves addr and classifies the containing function.
// User-space and unknown addresses classify as ClassNone.
func (t *Table) ClassifyAddr(addr uint64) Class {
	s, ok := t.Lookup(addr)
	if !ok {
		return ClassNone
	}
	return Classify(s.Name)
}

var whitelistByName = func() map[string]Class {
	m := make(map[string]Class, len(Whitelist))
	for _, e := range Whitelist {
		m[e.Name] = e.Class
	}
	return m
}()

// Generate builds the synthetic System.map. The seed controls function
// sizes and the interleaving of filler symbols, so different "kernel builds"
// can be simulated; all whitelist, idle and filler symbols are always
// present exactly once.
func Generate(seed uint64) *Table {
	r := rng.New(seed)
	names := make([]string, 0, len(Whitelist)+len(idleSymbols)+len(fillerSymbols))
	for _, e := range Whitelist {
		names = append(names, e.Name)
	}
	names = append(names, idleSymbols...)
	names = append(names, fillerSymbols...)
	// Shuffle layout deterministically: real kernels do not group critical
	// functions contiguously, and the detector must not rely on layout.
	perm := r.Perm(len(names))
	addr := KernelBase
	syms := make([]Symbol, 0, len(names))
	for _, idx := range perm {
		size := uint64(64 + r.Intn(4032)) // 64B..4KiB functions
		size = (size + 15) &^ 15          // align sizes for tidiness
		syms = append(syms, Symbol{Addr: addr, Size: size, Type: 'T', Name: names[idx]})
		addr += size
		// Occasional padding gap (alignment holes, data in text).
		if r.Bool(0.2) {
			addr += uint64(16 + r.Intn(240))
		}
	}
	return newTable(syms)
}

// newTable indexes syms, which must already be sorted by address.
func newTable(syms []Symbol) *Table {
	byName := make(map[string]int, len(syms))
	for i, s := range syms {
		byName[s.Name] = i
	}
	return &Table{syms: syms, byName: byName}
}

// Format writes the table in System.map format ("%016x %c %s\n").
// Sizes are not part of the format, exactly as in real System.map files.
func (t *Table) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, s := range t.syms {
		line = appendHex16(line[:0], s.Addr)
		line = append(line, ' ', s.Type, ' ')
		line = append(line, s.Name...)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendHex16 appends x as 16 zero-padded lowercase hex digits (%016x).
func appendHex16(b []byte, x uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[x>>uint(shift)&0xf])
	}
	return b
}

// defaultLastSize is assumed for the final symbol when parsing, since
// System.map carries no sizes.
const defaultLastSize = 4096

// Parse reads a System.map-format stream. Symbol sizes are inferred from
// the distance to the next symbol (the standard kallsyms convention).
// Aliases — several names at one address — keep their file order, and all
// but the last-listed get size 0, so the last-listed alias is the one an
// address inside the function resolves to.
func Parse(r io.Reader) (*Table, error) {
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
