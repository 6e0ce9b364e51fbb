package guest

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestSocketRingFIFO: the receive ring hands packets out in arrival order
// and counts them right while its head wraps and while it doubles with the
// queued packets wrapped around the end of the old buffer.
func TestSocketRingFIFO(t *testing.T) {
	s := &Socket{}
	var want []uint64 // reference FIFO
	next := uint64(0)
	wrappedGrowths := 0
	check := func() {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("Len %d, want %d", s.Len(), len(want))
		}
		if n := len(s.buf); n&(n-1) != 0 {
			t.Fatalf("ring of %d packets, want a power of two", n)
		}
	}
	// Nine in, seven out per round: the head keeps moving and, the counts
	// being odd, is seldom at the buffer's start when it fills.
	for round := 0; round < 200; round++ {
		for i := 0; i < 9; i++ {
			if s.n == len(s.buf) && s.head != 0 {
				wrappedGrowths++
			}
			s.deliver(Packet{Seq: next})
			want = append(want, next)
			next++
			check()
		}
		for i := 0; i < 7; i++ {
			if p := s.pop(); p.Seq != want[0] {
				t.Fatalf("round %d: popped seq %d, want %d", round, p.Seq, want[0])
			}
			want = want[1:]
			check()
		}
	}
	for len(want) > 0 {
		if p := s.pop(); p.Seq != want[0] {
			t.Fatalf("drain: popped seq %d, want %d", p.Seq, want[0])
		}
		want = want[1:]
		check()
	}
	if wrappedGrowths < 3 {
		t.Fatalf("%d doublings of a wrapped ring, want at least 3", wrappedGrowths)
	}
}

// TestSocketBlockedRecvRestarts: a server blocked on an empty socket is
// woken by the softirq, restarts its recv (phaseRestart) and consumes every
// packet in order, batch after batch, while the ring grows and wraps under
// it; between batches it blocks again as the socket's waiter.
func TestSocketBlockedRecvRestarts(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	nic := &fakeNIC{}
	k.AttachNIC(nic)
	sock := k.NewSocket(0)
	var got []uint64
	sock.OnAppConsume = func(p Packet, now simtime.Time) { got = append(got, p.Seq) }
	server := k.NewThread(0, "server", &loopProg{op: Op{Kind: OpRecv, Sock: sock}})
	h.Start()
	k.StartAll()
	seq := uint64(0)
	for batch, size := range []int{3, 40, 25, 60, 1} {
		clock.RunUntil(clock.Now() + simtime.Millisecond)
		if server.State() != ThreadBlockedIO || sock.waiter != server || server.ph != phaseRestart {
			t.Fatalf("batch %d: server %v (phase %d), waiter %p; want it blocked in recv",
				batch, server.State(), server.ph, sock.waiter)
		}
		for i := 0; i < size; i++ {
			nic.ring = append(nic.ring, Packet{Seq: seq, Bytes: 64, SentAt: clock.Now()})
			seq++
		}
		h.InjectPIRQ(k.Dom, hv.VecNet, 0)
		clock.RunUntil(clock.Now() + 10*simtime.Millisecond)
		if sock.Len() != 0 || uint64(len(got)) != seq {
			t.Fatalf("batch %d: consumed %d of %d, %d still queued", batch, len(got), seq, sock.Len())
		}
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("consumed out of order: %v", got)
		}
	}
	if sock.Delivered != seq || sock.Consumed != seq {
		t.Fatalf("delivered %d, consumed %d, want %d", sock.Delivered, sock.Consumed, seq)
	}
	if len(sock.buf) < 64 || sock.head == 0 {
		t.Fatalf("ring of %d with head %d: the batches neither grew it past 32 nor left it wrapped",
			len(sock.buf), sock.head)
	}
}
