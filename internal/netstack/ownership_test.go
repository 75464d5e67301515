package netstack

import (
	"testing"
	"time"

	"dvemig/internal/netsim"
)

// TestDataFINSegmentSurvivesReplyInCallback delivers one segment that
// carries data and FIN. The receiver's OnReadable drains it with Recv
// and replies with Send in the same callback, so the reply is minted
// from the pool the drained segment was just released to. The FIN must
// still be processed, exactly once.
func TestDataFINSegmentSurvivesReplyInCallback(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4040)
	var got []byte
	eofCallbacks := 0
	srv.OnReadable = func() {
		if data := srv.Recv(); len(data) > 0 {
			got = append(got, data...)
			if err := srv.Send([]byte("ack")); err != nil {
				t.Errorf("reply send: %v", err)
			}
		}
		if srv.EOF() {
			eofCallbacks++
		}
	}
	payload := []byte("last words")
	seq := cli.SndNxt
	seg := cli.makePacket(netsim.FlagACK|netsim.FlagPSH|netsim.FlagFIN, seq, cli.RcvNxt, cli.stack.pool.Payload(len(payload)))
	copy(seg.Payload, payload)
	seg.FixChecksum()
	cli.SndNxt += uint32(len(payload)) + 1
	p.b.input(seg)
	p.sched.RunFor(100 * time.Millisecond)

	if string(got) != string(payload) {
		t.Fatalf("received %q, want %q", got, payload)
	}
	if srv.State != TCPCloseWait {
		t.Fatalf("server state = %v, want CLOSE_WAIT (FIN lost)", srv.State)
	}
	if want := seq + uint32(len(payload)) + 1; srv.RcvNxt != want {
		t.Fatalf("RcvNxt = %d, want seq+len+1 = %d", srv.RcvNxt, want)
	}
	if eofCallbacks != 1 {
		t.Fatalf("FIN processed %d times, want exactly once", eofCallbacks)
	}
}

// TestListenerReleasesNonSYNSegments pins the listener's ownership: a
// segment that reaches a listening socket without a matching connection
// (an ACK, data, or a stray SYN|ACK) is consumed there, so the pool's
// live count returns to where it was.
func TestListenerReleasesNonSYNSegments(t *testing.T) {
	p := newPair(t)
	lst := NewTCPSocket(p.b)
	if err := lst.Listen(addrB, 7000); err != nil {
		t.Fatal(err)
	}
	pool := netsim.PoolFor(p.sched)
	p.sched.RunFor(time.Millisecond)
	before := pool.Live()
	for i, flags := range []byte{netsim.FlagACK, netsim.FlagACK | netsim.FlagPSH, netsim.FlagSYN | netsim.FlagACK, netsim.FlagFIN | netsim.FlagACK} {
		seg := pool.Packet()
		seg.SrcIP, seg.DstIP, seg.Proto, seg.TTL = addrA, addrB, netsim.ProtoTCP, 64
		seg.SrcPort, seg.DstPort = uint16(40000+i), 7000
		seg.Seq, seg.Flags = 1000, flags
		if flags&netsim.FlagPSH != 0 {
			seg.Payload = pool.Payload(64)
		}
		seg.FixChecksum()
		p.b.input(seg)
	}
	p.sched.RunFor(100 * time.Millisecond)
	if got := pool.Live(); got != before {
		t.Fatalf("live packets = %d after non-SYN segments hit the listener, want %d", got, before)
	}
	if p.b.Stats.Delivered != 4 {
		t.Fatalf("delivered = %d, want the 4 segments demuxed to the listener", p.b.Stats.Delivered)
	}
}
