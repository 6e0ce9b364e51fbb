// Package vdisk models a virtual block device: bounded in-flight
// parallelism (queue depth), a seek+transfer service-time model, and an
// NVMe-style completion interrupt raised towards the submitting vCPU.
//
// The device gives the simulator a second I/O path besides internal/vnet:
// guest threads block in OpDisk until the completion IRQ arrives, so a
// runnable-but-preempted vCPU turns microsecond storage latency into
// multi-millisecond latency exactly as the paper's network path does —
// and the micro-sliced mechanism's vIRQ-relay acceleration applies
// unchanged.
package vdisk

import (
	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/rng"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Defaults model a fast SATA/entry-NVMe SSD.
const (
	DefaultDepth    = 8
	DefaultSeekMean = 60 * simtime.Microsecond
	DefaultRateBps  = 400 << 20 // 400 MiB/s
)

type request struct {
	bytes  int
	write  bool
	done   func()
	queued simtime.Time
	span   obs.SpanRef // open disk_io span (0: none)
}

// Disk is a virtual block device.
type Disk struct {
	clock *simtime.Clock
	r     *rng.Source

	// Depth bounds concurrent in-flight requests.
	Depth int
	// SeekMean is the mean per-request positioning/firmware latency.
	SeekMean simtime.Duration
	// RateBps is the sustained transfer rate in bytes per second.
	RateBps int64

	inflight int
	queue    []request

	Reads     uint64
	Writes    uint64
	Completed uint64
	// Latency records device-level request latency (queue + service), in
	// nanoseconds.
	Latency *metrics.Histogram

	// Obs, when non-nil, receives a disk_io span per request (submit to
	// device completion), attributed to domain ObsDom. Set both at wiring
	// time; the disk itself has no hypervisor reference.
	Obs    *obs.Observer
	ObsDom int16
}

// New creates a disk with the default performance model.
func New(clock *simtime.Clock, seed uint64) *Disk {
	return &Disk{
		clock:    clock,
		r:        rng.New(seed),
		Depth:    DefaultDepth,
		SeekMean: DefaultSeekMean,
		RateBps:  DefaultRateBps,
		Latency:  metrics.NewHistogram(8),
	}
}

var _ guest.BlockDevice = (*Disk)(nil)

// Submit implements guest.BlockDevice.
func (d *Disk) Submit(bytes int, write bool, done func()) {
	if bytes <= 0 {
		bytes = 512
	}
	if write {
		d.Writes++
	} else {
		d.Reads++
	}
	req := request{bytes: bytes, write: write, done: done, queued: d.clock.Now()}
	if d.Obs != nil {
		req.span = d.Obs.Begin(obs.SpanDiskIO, d.ObsDom, -1, uint64(bytes), req.queued)
	}
	d.queue = append(d.queue, req)
	d.pump()
}

// serviceTime draws one request's device time.
func (d *Disk) serviceTime(bytes int) simtime.Duration {
	seek := simtime.Duration(d.r.ExpDur(int64(d.SeekMean)))
	transfer := simtime.Duration(int64(bytes) * int64(simtime.Second) / d.RateBps)
	return seek + transfer
}

func (d *Disk) pump() {
	for d.inflight < d.Depth && len(d.queue) > 0 {
		req := d.queue[0]
		d.queue = d.queue[1:]
		d.inflight++
		if d.Obs != nil {
			// The request leaves the submission queue: everything since
			// Submit was queue wait, the rest is device service.
			d.Obs.Stage(req.span, obs.DiskStageQueue, d.clock.Now())
		}
		d.clock.After(d.serviceTime(req.bytes), func() {
			d.inflight--
			d.Completed++
			d.Latency.Observe(int64(d.clock.Now() - req.queued))
			if d.Obs != nil {
				d.Obs.End(req.span, d.clock.Now())
			}
			if req.done != nil {
				req.done()
			}
			d.pump()
		})
	}
}
