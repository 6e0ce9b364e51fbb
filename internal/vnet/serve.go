package vnet

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/rng"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// DefaultReqBytes is the request packet size when a RequestFlow is created
// with 0.
const DefaultReqBytes = 512

// RequestFlow is an open-loop RPC-style arrival process: a seeded Poisson
// stream of request packets injected into a domain's NIC ring, each fanned
// out (RSS-style) to one of targets sockets served by per-vCPU server
// threads (see workload.RequestServer).
//
// Measurement is coordinated-omission-free by construction: arrivals fire
// at their *intended* instants regardless of how backed up the guest is
// (there is no sender-side queue to hide stalls in), per-request latency is
// measured from the intended arrival to the reply's transmission, and a
// request tail-dropped at the full ring counts against the SLO instead of
// silently vanishing from the distribution.
type RequestFlow struct {
	nic     *NIC
	clock   *simtime.Clock
	r       *rng.Source
	gapMean simtime.Duration // mean inter-arrival gap (exponential)
	bytes   int
	slo     simtime.Duration
	targets int // socket fan-out: one per server thread

	seq      uint64
	arriveFn func()
	started  simtime.Time

	// Ledger (exact, deterministic). Offered == Dropped + Completed +
	// InFlight() at every instant — the flow-side half of the request
	// conservation law.
	Offered   uint64
	Dropped   uint64 // tail-dropped at the full NIC ring: SLO violations
	Completed uint64
	Late      uint64 // completed, but past the SLO

	// Lat is the end-to-end latency distribution (ns, from intended
	// arrival) of completed requests. Always recorded, observer or not, so
	// attaching an observer cannot perturb the reported quantiles.
	Lat *metrics.Histogram
}

// NewRequestFlow creates an open-loop request stream towards nic offering
// ratePerSec requests per second against the given end-to-end SLO,
// spraying across targets sockets (flow IDs 0..targets-1). reqBytes of 0
// defaults to DefaultReqBytes.
func NewRequestFlow(clock *simtime.Clock, nic *NIC, ratePerSec, reqBytes int, slo simtime.Duration, targets int, seed uint64) (*RequestFlow, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("vnet: request flow: rate %d req/s must be positive", ratePerSec)
	}
	if reqBytes == 0 {
		reqBytes = DefaultReqBytes
	}
	if reqBytes < 0 {
		return nil, fmt.Errorf("vnet: request flow: request size %d must be positive", reqBytes)
	}
	if slo <= 0 {
		return nil, fmt.Errorf("vnet: request flow: SLO %v must be positive", slo)
	}
	if targets <= 0 {
		return nil, fmt.Errorf("vnet: request flow: %d targets must be positive", targets)
	}
	f := &RequestFlow{
		nic:     nic,
		clock:   clock,
		r:       rng.New(seed),
		gapMean: simtime.Duration(int64(simtime.Second) / int64(ratePerSec)),
		bytes:   reqBytes,
		slo:     slo,
		targets: targets,
		Lat:     metrics.NewHistogram(8),
	}
	f.arriveFn = f.arrive
	return f, nil
}

// SLO returns the flow's latency objective.
func (f *RequestFlow) SLO() simtime.Duration { return f.slo }

// Start schedules the first arrival one exponential gap from now.
func (f *RequestFlow) Start() {
	f.started = f.clock.Now()
	f.clock.After(f.gap(), f.arriveFn)
}

func (f *RequestFlow) gap() simtime.Duration {
	return simtime.Duration(f.r.ExpDur(int64(f.gapMean)))
}

// arrive injects one request at its intended instant and schedules the
// next. SentAt is the intended arrival, so every downstream latency read is
// coordinated-omission-free.
func (f *RequestFlow) arrive() {
	now := f.clock.Now()
	f.Offered++
	f.seq++
	p := guest.Packet{Seq: f.seq, Flow: f.r.Intn(f.targets), Bytes: f.bytes, SentAt: now}
	if o := f.nic.h.Obs; o != nil {
		p.ReqSpan = o.Begin(obs.SpanRequest, int16(f.nic.dom.ID), int16(f.nic.dom.IRQVCPU), f.seq, now)
	}
	if !f.nic.Rx(p) {
		f.Dropped++
		if o := f.nic.h.Obs; o != nil {
			o.Cancel(p.ReqSpan) // never served; the drop counts via Dropped
		}
	}
	f.clock.After(f.gap(), f.arriveFn)
}

// MarkService stamps the service→reply boundary on p's request span: the
// server is dispatching the reply transmission now. Called by the server
// program (workload.RequestServer).
func (f *RequestFlow) MarkService(p guest.Packet, now simtime.Time) {
	if o := f.nic.h.Obs; o != nil {
		o.Stage(p.ReqSpan, obs.ReqStageService, now)
	}
}

// Complete records p's reply transmission at now: end-to-end latency from
// the intended arrival, lateness against the SLO, and the request span's
// close. Called by the server program after the reply's OpSend completes.
func (f *RequestFlow) Complete(p guest.Packet, now simtime.Time) {
	lat := now - p.SentAt
	f.Completed++
	f.Lat.Observe(int64(lat))
	if simtime.Duration(lat) > f.slo {
		f.Late++
	}
	if o := f.nic.h.Obs; o != nil {
		o.End(p.ReqSpan, now)
	}
}

// InFlight returns the number of requests admitted but not yet replied to
// (anywhere in ring → softirq → socket → service).
func (f *RequestFlow) InFlight() uint64 {
	return f.Offered - f.Dropped - f.Completed
}
