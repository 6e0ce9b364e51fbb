// Package workload models the paper's application suite as guest thread
// programs: PARSEC (swaptions, dedup, vips, blackscholes, bodytrack,
// streamcluster, raytrace), MOSBENCH (exim, gmake, psearchy), the memclone
// microbenchmark, SPECCPU-style single-threaded applications (perlbench,
// sjeng, bzip2), the iPerf/lookbusy pair of the I/O experiments, and the
// user-spinlock game server of the §4.4 extension with its hog.
//
// Each application is characterised — following §3 and §6.1 of the paper —
// by its dominant kernel interaction: pure user computation (swaptions,
// SPEC), spinlock-protected kernel service churn (gmake, exim, memclone),
// TLB-shootdown storms from mmap/munmap (dedup, vips), a mix with
// reader-writer semaphores and idling (psearchy), or network receive
// (iperf). Durations are drawn from seeded exponential distributions so
// runs are reproducible and co-runner phases drift naturally.
package workload

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/rng"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// App is an application instance deployed into one guest kernel. Threads
// increment the work-unit counter once per completed iteration; experiment
// harnesses turn units into throughput or normalized execution time.
type App struct {
	Name   string
	Kernel *guest.Kernel
	units  uint64
}

// Units returns the completed work-unit count.
func (a *App) Units() uint64 { return a.units }

// builder populates the kernel with an app's threads.
type builder func(a *App, r *rng.Source)

// diskApps marks catalog entries that require an attached BlockDevice.
var diskApps = map[string]bool{"fileserver": true}

// NeedsDisk reports whether the named application requires a virtual disk.
func NeedsDisk(name string) bool { return diskApps[name] }

var registry = map[string]builder{
	"swaptions":     buildSwaptions,
	"lookbusy":      buildLookbusy,
	"gmake":         buildGmake,
	"exim":          buildExim,
	"psearchy":      buildPsearchy,
	"dedup":         buildDedup,
	"vips":          buildVips,
	"memclone":      buildMemclone,
	"blackscholes":  buildBlackscholes,
	"bodytrack":     buildBodytrack,
	"streamcluster": buildStreamcluster,
	"raytrace":      buildRaytrace,
	"perlbench":     buildPerlbench,
	"sjeng":         buildSjeng,
	"bzip2":         buildBzip2,
	"fileserver":    buildFileserver,
	"usergame":      buildUserGame,
	"usergame-hog":  buildUserGameHog,
}

// Catalog returns the available application names, sorted.
func Catalog() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New deploys the named application into kernel k. The seed controls all
// of the app's random durations.
func New(name string, k *guest.Kernel, seed uint64) (*App, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown application %q (have %v)", name, Catalog())
	}
	a := &App{Name: name, Kernel: k}
	b(a, rng.New(seed))
	return a, nil
}

// Known reports whether name is a registered application.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// cycleProg replays iterations produced by build, bumping the app's
// work-unit counter after each completed iteration. build appends one
// iteration's ops to the slice it is given and returns it; every iteration
// reuses the backing array of the last, so steady state allocates nothing.
type cycleProg struct {
	app   *App
	build func(ops []guest.Op) []guest.Op
	buf   []guest.Op // backing array shared by all iterations
	queue []guest.Op // the unplayed rest of buf
	first bool
}

func newCycleProg(a *App, build func(ops []guest.Op) []guest.Op) *cycleProg {
	return &cycleProg{app: a, build: build, first: true}
}

// Next implements guest.Program.
func (p *cycleProg) Next(now simtime.Time, op *guest.Op) {
	if len(p.queue) == 0 {
		if !p.first {
			p.app.units++
		}
		p.first = false
		p.buf = p.build(p.buf[:0])
		p.queue = p.buf
		if len(p.queue) == 0 {
			*op = guest.Op{Kind: guest.OpExit}
			return
		}
	}
	*op = p.queue[0]
	p.queue = p.queue[1:]
}

func exp(r *rng.Source, mean simtime.Duration) simtime.Duration {
	return simtime.Duration(r.ExpDur(int64(mean)))
}

// us is a readability helper for microsecond constants.
const us = simtime.Microsecond

// perVCPU runs one thread per vCPU, each with its own rng fork.
func perVCPU(a *App, r *rng.Source, name string, mk func(r *rng.Source) guest.Program) {
	for i := range a.Kernel.VCPUs {
		a.Kernel.NewThread(i, name+"-"+strconv.Itoa(i), mk(r.Fork(uint64(i))))
	}
}

// ---------------------------------------------------------------------------
// Pure user-level applications
// ---------------------------------------------------------------------------

// buildSwaptions: PARSEC swaptions — the co-runner with the highest CPU
// utilization; pure user computation.
func buildSwaptions(a *App, r *rng.Source) {
	perVCPU(a, r, "swaptions", func(r *rng.Source) guest.Program {
		return newCycleProg(a, func(ops []guest.Op) []guest.Op {
			return append(ops, guest.Op{Kind: guest.OpCompute, Dur: exp(r, 2000*us)})
		})
	})
}

// buildLookbusy: constant CPU burner used by the mixed-I/O experiments.
func buildLookbusy(a *App, r *rng.Source) {
	perVCPU(a, r, "lookbusy", func(r *rng.Source) guest.Program {
		return newCycleProg(a, func(ops []guest.Op) []guest.Op {
			return append(ops, guest.Op{Kind: guest.OpCompute, Dur: 1000 * us})
		})
	})
}

// userLevelApp builds a mostly-user-level PARSEC/SPEC application with the
// given mean burst and thread count (0 = per vCPU). A sliver of kernel
// time (page-cache reads) keeps it realistic without making it
// kernel-bound.
func userLevelApp(a *App, r *rng.Source, burst simtime.Duration, threads int) {
	vfsRead := a.Kernel.Sym.InnerAddr("vfs_read")
	mk := func(r *rng.Source) guest.Program {
		return newCycleProg(a, func(ops []guest.Op) []guest.Op {
			ops = append(ops, guest.Op{Kind: guest.OpCompute, Dur: exp(r, burst)})
			if r.Bool(0.02) {
				ops = append(ops, guest.Op{Kind: guest.OpKernel, RIP: vfsRead, Dur: exp(r, 3*us)})
			}
			return ops
		})
	}
	if threads <= 0 {
		perVCPU(a, r, a.Name, mk)
		return
	}
	for i := 0; i < threads; i++ {
		a.Kernel.NewThread(i%len(a.Kernel.VCPUs), a.Name+"-"+strconv.Itoa(i), mk(r.Fork(uint64(i))))
	}
}

func buildBlackscholes(a *App, r *rng.Source)  { userLevelApp(a, r, 1500*us, 0) }
func buildBodytrack(a *App, r *rng.Source)     { userLevelApp(a, r, 900*us, 0) }
func buildStreamcluster(a *App, r *rng.Source) { userLevelApp(a, r, 1200*us, 0) }
func buildRaytrace(a *App, r *rng.Source)      { userLevelApp(a, r, 2000*us, 0) }
func buildPerlbench(a *App, r *rng.Source)     { userLevelApp(a, r, 2500*us, 1) }
func buildSjeng(a *App, r *rng.Source)         { userLevelApp(a, r, 3000*us, 1) }
func buildBzip2(a *App, r *rng.Source)         { userLevelApp(a, r, 2800*us, 1) }

// ---------------------------------------------------------------------------
// Spinlock-bound MOSBENCH applications
// ---------------------------------------------------------------------------

// buildGmake: parallel make — fork/exec and page-allocator churn known to
// trigger lock-holder preemption (paper §3.1, §6.2).
func buildGmake(a *App, r *rng.Source) {
	k := a.Kernel
	n := len(k.VCPUs)
	zone := make([]*guest.SpinLock, (n+5)/6)
	for i := range zone {
		zone[i] = k.Lock("zone"+strconv.Itoa(i), "Page allocator", "get_page_from_freelist")
	}
	// Lock granularity mirrors the kernel: per-directory dentry locks and
	// per-CPU runqueue locks see only 2-3 contenders — the regime where a
	// preempted holder/grantee stalls the lock outright — while the zone
	// and LRU locks are shared VM-wide.
	dentry := make([]*guest.SpinLock, (n+2)/3)
	for i := range dentry {
		dentry[i] = k.Lock("dcache"+strconv.Itoa(i), "Dentry", "__d_lookup")
	}
	runq := make([]*guest.SpinLock, n)
	for i := range runq {
		runq[i] = k.Lock("rq"+strconv.Itoa(i), "Runqueue", "enqueue_task_fair")
	}
	reclaim := k.Lock("lru", "Page reclaim", "shrink_page_list")
	for i := range a.Kernel.VCPUs {
		i := i
		r := r.Fork(uint64(i))
		a.Kernel.NewThread(i, "gmake-"+strconv.Itoa(i), newCycleProg(a, func(ops []guest.Op) []guest.Op {
			ops = append(ops,
				guest.Op{Kind: guest.OpCompute, Dur: exp(r, 55*us)},
				guest.Op{Kind: guest.OpLock, Lock: zone[r.Intn(len(zone))], Dur: exp(r, 2*us)},
				guest.Op{Kind: guest.OpCompute, Dur: exp(r, 20*us)},
				guest.Op{Kind: guest.OpLock, Lock: dentry[r.Intn(len(dentry))], Dur: exp(r, 1500)},
			)
			// schedule()/ttwu take the local runqueue lock every cycle;
			// cross-CPU wakeups occasionally grab a remote one. A vCPU
			// preempted inside its own rq critical section stalls every
			// remote waker (paper §3.1, kick_process/resched_curr).
			rq := runq[i]
			if sib := i ^ 1; r.Bool(0.15) && sib < len(runq) {
				// Wake the sibling worker: grab its runqueue lock. The last
				// worker of an odd-sized VM has no sibling and stays local.
				rq = runq[sib]
			}
			ops = append(ops, guest.Op{Kind: guest.OpLock, Lock: rq, Dur: exp(r, 1500)})
			if r.Bool(0.2) {
				ops = append(ops, guest.Op{Kind: guest.OpLock, Lock: reclaim, Dur: exp(r, 5*us)})
			}
			if r.Bool(0.06) {
				// Child reaps / pipe waits: brief sleeps create halts.
				ops = append(ops, guest.Op{Kind: guest.OpSleep, Dur: exp(r, 40*us)})
			}
			return ops
		}))
	}
}

// buildExim: the mail server — process and small-file creation per
// message; the most spinlock-intensive workload in the suite (the paper's
// headline case: baseline co-run collapses into PLE spinning, and a single
// micro-sliced core recovers most of it). Locks are fine-grained the way
// the kernel's are: per-directory d_locks, two zone locks, per-CPU
// runqueue locks.
func buildExim(a *App, r *rng.Source) {
	k := a.Kernel
	n := len(k.VCPUs)
	dentry := make([]*guest.SpinLock, (n+2)/3)
	for i := range dentry {
		dentry[i] = k.Lock("dcache"+strconv.Itoa(i), "Dentry", "__d_lookup")
	}
	zone := []*guest.SpinLock{
		k.Lock("zone0", "Page allocator", "get_page_from_freelist"),
		k.Lock("zone1", "Page allocator", "free_one_page"),
	}
	reclaim := k.Lock("lru", "Page reclaim", "shrink_page_list")
	runq := make([]*guest.SpinLock, n)
	for i := range runq {
		runq[i] = k.Lock("rq"+strconv.Itoa(i), "Runqueue", "enqueue_task_fair")
	}
	sysOpen := k.Sym.InnerAddr("do_sys_open")
	for i := range k.VCPUs {
		i := i
		r := r.Fork(uint64(i))
		k.NewThread(i, "exim-"+strconv.Itoa(i), newCycleProg(a, func(ops []guest.Op) []guest.Op {
			// One message: fork, create spool files, deliver, unlink.
			rq := runq[i]
			if sib := i ^ 1; r.Bool(0.15) && sib < len(runq) {
				rq = runq[sib]
			}
			ops = append(ops,
				guest.Op{Kind: guest.OpCompute, Dur: exp(r, 10*us)},
				guest.Op{Kind: guest.OpLock, Lock: rq, Dur: exp(r, 1200)},
				guest.Op{Kind: guest.OpLock, Lock: zone[r.Intn(2)], Dur: exp(r, 4*us)},
				guest.Op{Kind: guest.OpCompute, Dur: exp(r, 6*us)},
				guest.Op{Kind: guest.OpLock, Lock: dentry[r.Intn(len(dentry))], Dur: exp(r, 6*us)},
				guest.Op{Kind: guest.OpKernel, RIP: sysOpen, Dur: exp(r, 2*us)},
				guest.Op{Kind: guest.OpLock, Lock: dentry[r.Intn(len(dentry))], Dur: exp(r, 4*us)},
			)
			if r.Bool(0.3) {
				ops = append(ops, guest.Op{Kind: guest.OpLock, Lock: reclaim, Dur: exp(r, 3*us)})
			}
			return ops
		}))
	}
}

// buildPsearchy: parallel indexing — page-allocator and dentry spinning
// plus idle gaps between file batches (halt yields) and occasional
// mmap-driven TLB flushes.
func buildPsearchy(a *App, r *rng.Source) {
	k := a.Kernel
	n := len(k.VCPUs)
	zone := make([]*guest.SpinLock, (n+3)/4)
	for i := range zone {
		zone[i] = k.Lock("zone"+strconv.Itoa(i), "Page allocator", "get_page_from_freelist")
	}
	dentry := make([]*guest.SpinLock, (n+1)/2)
	for i := range dentry {
		dentry[i] = k.Lock("dcache"+strconv.Itoa(i), "Dentry", "__d_lookup")
	}
	perVCPU(a, r, "psearchy", func(r *rng.Source) guest.Program {
		return newCycleProg(a, func(ops []guest.Op) []guest.Op {
			ops = append(ops,
				guest.Op{Kind: guest.OpCompute, Dur: exp(r, 150*us)},
				guest.Op{Kind: guest.OpLock, Lock: dentry[r.Intn(len(dentry))], Dur: exp(r, 1500)},
				guest.Op{Kind: guest.OpLock, Lock: zone[r.Intn(len(zone))], Dur: exp(r, 1500)},
			)
			if r.Bool(0.05) {
				ops = append(ops, guest.Op{Kind: guest.OpTLBFlush})
			}
			if r.Bool(0.008) {
				// I/O gap between file batches.
				ops = append(ops, guest.Op{Kind: guest.OpSleep, Dur: exp(r, 300*us)})
			}
			return ops
		})
	})
}

// buildMemclone: the microbenchmark — threads mmap constantly, hammering
// the zone lock (pure LHP pressure).
func buildMemclone(a *App, r *rng.Source) {
	k := a.Kernel
	zone := k.Lock("zone0", "Page allocator", "get_page_from_freelist")
	perVCPU(a, r, "memclone", func(r *rng.Source) guest.Program {
		return newCycleProg(a, func(ops []guest.Op) []guest.Op {
			return append(ops,
				guest.Op{Kind: guest.OpCompute, Dur: exp(r, 12*us)},
				guest.Op{Kind: guest.OpLock, Lock: zone, Dur: exp(r, 2500)},
			)
		})
	})
}

// ---------------------------------------------------------------------------
// TLB-shootdown applications
// ---------------------------------------------------------------------------

// buildDedup: PARSEC dedup — mmap/munmap on a shared address space; the
// paper's dominant TLB-synchronization victim (89% of cycles waiting for
// IPI acknowledgements in co-run).
func buildDedup(a *App, r *rng.Source) {
	k := a.Kernel
	zone := k.Lock("zone0", "Page allocator", "get_page_from_freelist")
	mm := k.RWSem("mmap_sem", "Runqueue", "flush_tlb_mm_range")
	perVCPU(a, r, "dedup", func(r *rng.Source) guest.Program {
		return newCycleProg(a, func(ops []guest.Op) []guest.Op {
			// Most flushes come from glibc free() -> madvise, which takes
			// mmap_sem for *read*: flushes run concurrently on all threads
			// (the paper's "89% of cycles in smp_call_function_many").
			// Occasional munmaps serialize under the write semaphore.
			flush := guest.Op{Kind: guest.OpTLBFlush}
			if r.Bool(0.15) {
				flush.Lock = mm
			}
			ops = append(ops,
				guest.Op{Kind: guest.OpCompute, Dur: exp(r, 120*us)},
				flush,
			)
			if r.Bool(0.3) {
				ops = append(ops, guest.Op{Kind: guest.OpLock, Lock: zone, Dur: exp(r, 2*us)})
			}
			return ops
		})
	})
}

// buildVips: PARSEC vips — image pipeline with frequent-but-lighter
// mmap/munmap churn than dedup.
func buildVips(a *App, r *rng.Source) {
	mm := a.Kernel.RWSem("mmap_sem", "Runqueue", "flush_tlb_mm_range")
	perVCPU(a, r, "vips", func(r *rng.Source) guest.Program {
		return newCycleProg(a, func(ops []guest.Op) []guest.Op {
			ops = append(ops, guest.Op{Kind: guest.OpCompute, Dur: exp(r, 300*us)})
			if r.Bool(0.7) {
				flush := guest.Op{Kind: guest.OpTLBFlush}
				if r.Bool(0.2) {
					flush.Lock = mm
				}
				ops = append(ops, flush)
			}
			return ops
		})
	})
}

// buildFileserver: a storage-bound server — directory lookups under the
// dentry locks, block reads/writes through the attached virtual disk, and
// light request parsing. The VM must have a BlockDevice attached
// (experiment.VMSpec.Disk / microsliced.VM.Disk) before it runs.
func buildFileserver(a *App, r *rng.Source) {
	k := a.Kernel
	n := len(k.VCPUs)
	dentry := make([]*guest.SpinLock, (n+2)/3)
	for i := range dentry {
		dentry[i] = k.Lock("dcache"+strconv.Itoa(i), "Dentry", "__d_lookup")
	}
	perVCPU(a, r, "fileserver", func(r *rng.Source) guest.Program {
		return newCycleProg(a, func(ops []guest.Op) []guest.Op {
			return append(ops,
				guest.Op{Kind: guest.OpCompute, Dur: exp(r, 15*us)},
				guest.Op{Kind: guest.OpLock, Lock: dentry[r.Intn(len(dentry))], Dur: exp(r, 1500)},
				guest.Op{Kind: guest.OpDisk, Bytes: 4096 << uint(r.Intn(4)), Write: r.Bool(0.3)},
			)
		})
	})
}

// ---------------------------------------------------------------------------
// User-level critical sections (paper §4.4)
// ---------------------------------------------------------------------------

// buildUserGame: a latency-critical game server whose contention is
// entirely in user-space spinlocks, one per world shard. Each shard's
// critical section is a user region the kernel records for the §4.4
// interface (guest.Kernel.UserRegions). Every op is one work unit.
func buildUserGame(a *App, r *rng.Source) {
	var shards [3]*guest.SpinLock
	for i := range shards {
		shards[i] = a.Kernel.UserLock("world-shard-"+strconv.Itoa(i), "User")
	}
	for i := range a.Kernel.VCPUs {
		r, shard := r.Fork(uint64(i)), shards[i%len(shards)]
		a.Kernel.NewThread(i, "game-"+strconv.Itoa(i), newCycleProg(a, func(ops []guest.Op) []guest.Op {
			if r.Bool(0.5) {
				return append(ops, guest.Op{Kind: guest.OpCompute, Dur: exp(r, 12*us)})
			}
			return append(ops, guest.Op{Kind: guest.OpLock, Lock: shard, Dur: exp(r, 2*us)})
		}))
	}
}

// buildUserGameHog: the game server's co-runner, 4-11 ms CPU bursts with
// short sleeps. Its streams fork at 1000+i, so it can share the game's
// seed without sharing its draws.
func buildUserGameHog(a *App, r *rng.Source) {
	for i := range a.Kernel.VCPUs {
		r, burst := r.Fork(1000+uint64(i)), simtime.Duration(4+i%8)*simtime.Millisecond
		a.Kernel.NewThread(i, "hog", newCycleProg(a, func(ops []guest.Op) []guest.Op {
			if r.Bool(0.12) {
				return append(ops, guest.Op{Kind: guest.OpSleep, Dur: 200 * us})
			}
			return append(ops, guest.Op{Kind: guest.OpCompute, Dur: burst})
		}))
	}
}

// ---------------------------------------------------------------------------
// I/O applications
// ---------------------------------------------------------------------------

// IperfServer deploys an iPerf-server thread receiving from sock on vCPU
// vcpu. Each consumed packet counts one work unit.
func IperfServer(a *App, vcpu int, sock *guest.Socket) *guest.Thread {
	prev := sock.OnAppConsume
	sock.OnAppConsume = func(p guest.Packet, now simtime.Time) {
		a.units++
		if prev != nil {
			prev(p, now)
		}
	}
	return a.Kernel.NewThread(vcpu, "iperf-server", guest.ProgramFunc(func(now simtime.Time) guest.Op {
		return guest.Op{Kind: guest.OpRecv, Sock: sock}
	}))
}

// Empty creates an app shell with no threads, which the experiment
// harness fills with an iPerf or request server.
func Empty(name string, k *guest.Kernel) *App {
	return &App{Name: name, Kernel: k}
}
