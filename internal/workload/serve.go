package workload

import (
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

// The per-request work a server thread performs between consuming a
// request and transmitting its reply: a short-request RPC profile, tens of
// microseconds of work per request, occasionally contending a kernel lock
// — small enough that micro-slices cover whole requests.
const (
	serveMean        = 20 * us // mean user-level service time (exponential)
	serveLockProb    = 0.2     // probability the request takes the shared dcache lock
	serveLockHold    = 2 * us  // mean critical-section hold
	serveSyscallProb = 0.3     // probability of an extra kernel read leg
	serveSyscallCost = 2 * us  // mean syscall cost
	serveReplyBytes  = 512     // reply payload handed to Transmit
	serveReplyCost   = 2 * us  // kernel transmit-path cost
)

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
// server thread per vCPU. Each request runs the service ops and replies
// with an OpSend whose completion reports to sink at the exact transmit
// instant. Each completed request counts one work unit.
func RequestServer(a *App, sink RequestSink, seed uint64) *ServerPool {
	k := a.Kernel
	r := rng.New(seed)
	lock := k.Lock("svc-dcache", "Dentry", "__d_lookup")
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
			lock: lock,
			rip:  k.Sym.InnerAddr("vfs_read"),
		}
		p.doneFn = p.replyDone
		sock.OnAppConsume = p.consume
		k.NewThread(i, "server-"+strconv.Itoa(i), p)
		sp.Sockets[i] = sock
		sp.progs[i] = p
	}
	return sp
}

// serveProg is one server thread's program: recv → service ops → reply.
type serveProg struct {
	app  *App
	sink RequestSink
	sock *guest.Socket
	r    *rng.Source
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

// buildService draws the current request's service ops.
func (p *serveProg) buildService() {
	q := p.q[:0]
	q = append(q, guest.Op{Kind: guest.OpCompute, Dur: exp(p.r, serveMean)})
	if p.r.Bool(serveLockProb) {
		q = append(q, guest.Op{Kind: guest.OpLock, Lock: p.lock, Dur: exp(p.r, serveLockHold)})
	}
	if p.r.Bool(serveSyscallProb) {
		q = append(q, guest.Op{Kind: guest.OpKernel, RIP: p.rip, Dur: exp(p.r, serveSyscallCost)})
	}
	p.q, p.qi = q, 0
}

// Next implements guest.Program. Because the engine resolves guest-slice
// rotation before calling Next, now is the exact dispatch instant of the
// op it writes — so staging the service→reply boundary here is exact.
func (p *serveProg) Next(now simtime.Time, op *guest.Op) {
	if !p.busy {
		*op = guest.Op{Kind: guest.OpRecv, Sock: p.sock}
		return
	}
	if p.qi < len(p.q) {
		*op = p.q[p.qi]
		p.qi++
		return
	}
	p.sink.MarkService(p.cur, now)
	*op = guest.Op{Kind: guest.OpSend, Bytes: serveReplyBytes, Dur: serveReplyCost, Done: p.doneFn}
}

// replyDone fires at the reply OpSend's completion — the transmit instant.
func (p *serveProg) replyDone(now simtime.Time) {
	p.sink.Complete(p.cur, now)
	p.app.units++
	p.busy = false
}
