package workload

import (
	"fmt"
	"strconv"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/rng"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// RequestSink receives request lifecycle callbacks from the server pool;
// implemented by vnet.RequestFlow. MarkService stamps the service→reply
// boundary when the reply op is dispatched; Complete records the reply's
// transmission.
type RequestSink interface {
	MarkService(p guest.Packet, now simtime.Time)
	Complete(p guest.Packet, now simtime.Time)
}

// ServeProfile is the per-request work a server thread performs between
// consuming a request and transmitting its reply — the knobs of the
// RPC-style serving workload.
type ServeProfile struct {
	ServiceMean simtime.Duration // mean user-level service time (exponential)
	LockProb    float64          // probability the request takes the shared dcache lock
	LockHold    simtime.Duration // mean critical-section hold
	SyscallProb float64          // probability of an extra kernel read leg
	SyscallCost simtime.Duration // mean syscall cost
	ReplyBytes  int32            // reply payload handed to Transmit
	ReplyCost   simtime.Duration // kernel transmit-path cost
}

// DefaultServeProfile is a short-request RPC profile: tens of microseconds
// of work per request, occasionally contending a kernel lock — small
// enough that micro-slices cover whole requests.
func DefaultServeProfile() ServeProfile {
	return ServeProfile{
		ServiceMean: 20 * us,
		LockProb:    0.2,
		LockHold:    2 * us,
		SyscallProb: 0.3,
		SyscallCost: 2 * us,
		ReplyBytes:  512,
		ReplyCost:   2 * us,
	}
}

func (p ServeProfile) validate() error {
	if p.ServiceMean <= 0 {
		return fmt.Errorf("workload: serve profile: service mean %v must be positive", p.ServiceMean)
	}
	if p.LockProb < 0 || p.LockProb > 1 || p.SyscallProb < 0 || p.SyscallProb > 1 {
		return fmt.Errorf("workload: serve profile: probabilities must be in [0,1]")
	}
	if p.ReplyBytes <= 0 {
		return fmt.Errorf("workload: serve profile: reply size %d must be positive", p.ReplyBytes)
	}
	return nil
}

// ServerPool is a deployed request-serving pool: one server thread per
// vCPU, each receiving from its own socket (flow ID == vCPU index,
// RSS-style steering — the engine's sockets are single-waiter).
type ServerPool struct {
	Sockets []*guest.Socket
	progs   []*serveProg
}

// InService counts servers currently holding a consumed-but-unreplied
// request — the last residency term of the request conservation law.
func (sp *ServerPool) InService() int {
	n := 0
	for _, p := range sp.progs {
		if p.busy {
			n++
		}
	}
	return n
}

// RequestServer deploys the serving pool into a's kernel: a socket and a
// server thread per vCPU. Each request runs the profile's service ops and
// replies with an OpSend whose completion reports to sink at the exact
// transmit instant. Each completed request counts one work unit.
func RequestServer(a *App, sink RequestSink, prof ServeProfile, seed uint64) (*ServerPool, error) {
	if err := prof.validate(); err != nil {
		return nil, err
	}
	k := a.Kernel
	r := rng.New(seed)
	var lock *guest.SpinLock
	if prof.LockProb > 0 {
		lock = k.Lock("svc-dcache", "Dentry", "__d_lookup")
	}
	sp := &ServerPool{
		Sockets: make([]*guest.Socket, len(k.VCPUs)),
		progs:   make([]*serveProg, len(k.VCPUs)),
	}
	for i := range k.VCPUs {
		sock := k.NewSocket(i)
		p := &serveProg{
			app:  a,
			sink: sink,
			sock: sock,
			r:    r.Fork(uint64(i)),
			prof: prof,
			lock: lock,
			rip:  k.Sym.InnerAddr("vfs_read"),
		}
		p.doneFn = p.replyDone
		sock.OnAppConsume = p.consume
		k.NewThread(i, "server-"+strconv.Itoa(i), p)
		sp.Sockets[i] = sock
		sp.progs[i] = p
	}
	return sp, nil
}

// serveProg is one server thread's program: recv → service ops → reply.
type serveProg struct {
	app  *App
	sink RequestSink
	sock *guest.Socket
	r    *rng.Source
	prof ServeProfile
	lock *guest.SpinLock
	rip  uint64 // the syscall leg's RIP (inside vfs_read), resolved once

	cur    guest.Packet
	busy   bool
	q      []guest.Op // service ops of the current request (reused)
	qi     int
	doneFn func(now simtime.Time) // pre-bound replyDone
}

// consume is the socket's OnAppConsume: the engine hands over the request
// the just-completed OpRecv consumed.
func (p *serveProg) consume(pkt guest.Packet, now simtime.Time) {
	p.busy = true
	p.cur = pkt
	p.buildService()
}

// buildService draws the current request's service ops from the profile.
func (p *serveProg) buildService() {
	q := p.q[:0]
	q = append(q, guest.Op{Kind: guest.OpCompute, Dur: exp(p.r, p.prof.ServiceMean)})
	if p.lock != nil && p.r.Bool(p.prof.LockProb) {
		q = append(q, guest.Op{Kind: guest.OpLock, Lock: p.lock, Dur: exp(p.r, p.prof.LockHold)})
	}
	if p.prof.SyscallProb > 0 && p.r.Bool(p.prof.SyscallProb) {
		q = append(q, guest.Op{Kind: guest.OpKernel, RIP: p.rip, Dur: exp(p.r, p.prof.SyscallCost)})
	}
	p.q, p.qi = q, 0
}

// Next implements guest.Program. Because the engine resolves guest-slice
// rotation before calling Next, now is the exact dispatch instant of the
// returned op — so staging the service→reply boundary here is exact.
func (p *serveProg) Next(now simtime.Time) guest.Op {
	if !p.busy {
		return guest.Op{Kind: guest.OpRecv, Sock: p.sock}
	}
	if p.qi < len(p.q) {
		op := p.q[p.qi]
		p.qi++
		return op
	}
	p.sink.MarkService(p.cur, now)
	return guest.Op{Kind: guest.OpSend, Bytes: p.prof.ReplyBytes, Dur: p.prof.ReplyCost, Done: p.doneFn}
}

// replyDone fires at the reply OpSend's completion — the transmit instant.
func (p *serveProg) replyDone(now simtime.Time) {
	p.sink.Complete(p.cur, now)
	p.app.units++
	p.busy = false
}
