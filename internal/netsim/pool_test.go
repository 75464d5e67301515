package netsim

import (
	"testing"

	"dvemig/internal/simtime"
)

// TestPoolOwnership pins the per-simulation pool contract: PoolFor is
// one pool per scheduler, Live counts minted minus released packets
// (clones included, double releases ignored), a released struct is
// handed out again zeroed, and unowned packets stay outside the count.
func TestPoolOwnership(t *testing.T) {
	s1, s2 := simtime.NewScheduler(), simtime.NewScheduler()
	pl := PoolFor(s1)
	if PoolFor(s1) != pl || PoolFor(s2) == pl {
		t.Fatal("PoolFor must return one pool per scheduler")
	}
	p := pl.Packet()
	p.Seq = 7
	p.Payload = pl.Payload(100)
	p.Payload[0] = 0xAB
	q := p.Clone()
	if pl.Live() != 2 {
		t.Fatalf("live = %d after mint+clone, want 2", pl.Live())
	}
	if &q.Payload[0] == &p.Payload[0] || q.Payload[0] != 0xAB || q.Seq != 7 {
		t.Fatal("clone must copy the payload into a private buffer")
	}
	p.Release()
	p.Release() // no-op: not reused yet
	if pl.Live() != 1 {
		t.Fatalf("live = %d after one (double) release, want 1", pl.Live())
	}
	r := pl.Packet()
	if r != p || r.Seq != 0 || r.Payload != nil {
		t.Fatal("released struct must come back first, zeroed")
	}
	if b := pl.Payload(10); cap(b) != payloadBufCap {
		t.Fatalf("released payload buffer not recycled: cap %d", cap(b))
	}
	r.Release()
	q.Release()
	if pl.Live() != 0 {
		t.Fatalf("live = %d after releasing everything, want 0", pl.Live())
	}

	u := NewPacket()
	u.Payload = GetPayload(10)
	uc := u.Clone()
	u.Release()
	uc.Release()
	if pl.Live() != 0 || len(pl.pkts) != 2 {
		t.Fatal("unowned packets must not touch any pool")
	}
}

// TestPoolFreeListsBounded pins the free-list bound: a burst of in-flight
// packets larger than maxFreePackets is left to the garbage collector
// beyond the bound instead of being retained for the whole simulation.
func TestPoolFreeListsBounded(t *testing.T) {
	pl := PoolFor(simtime.NewScheduler())
	burst := make([]*Packet, maxFreePackets+100)
	for i := range burst {
		burst[i] = pl.Packet()
		burst[i].Payload = pl.Payload(64)
	}
	for _, p := range burst {
		p.Release()
	}
	if len(pl.pkts) != maxFreePackets || len(pl.bufs) != maxFreePackets {
		t.Fatalf("free lists hold %d packets, %d buffers; want both bounded at %d",
			len(pl.pkts), len(pl.bufs), maxFreePackets)
	}
	if pl.Live() != 0 {
		t.Fatalf("live = %d, want 0", pl.Live())
	}
}
