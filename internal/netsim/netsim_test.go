package netsim

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dvemig/internal/simtime"
)

func TestAddrString(t *testing.T) {
	a := MakeAddr(192, 168, 0, 1)
	if a.String() != "192.168.0.1" {
		t.Fatalf("got %s", a)
	}
	if MakeAddr(10, 0, 0, 255).String() != "10.0.0.255" {
		t.Fatal("dotted quad wrong")
	}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, seq, ack, tsv, tse uint32, flags, proto byte, payload []byte) bool {
		if len(payload) == 0 {
			payload = nil // wire format cannot distinguish nil from empty
		}
		p := &Packet{
			SrcIP: Addr(src), DstIP: Addr(dst), Proto: proto, TTL: 64,
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags,
			Window: 65535, TSVal: tsv, TSEcr: tse, Payload: payload,
		}
		p.FixChecksum()
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		p.Dst = nil
		q.Dst = nil
		return reflect.DeepEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalShortPacket(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestChecksumDetectsMutation(t *testing.T) {
	p := &Packet{SrcIP: 1, DstIP: 2, Proto: ProtoTCP, SrcPort: 80, DstPort: 81, Payload: []byte("hello")}
	p.FixChecksum()
	if !p.ChecksumOK() {
		t.Fatal("fresh checksum invalid")
	}
	p.DstIP = 3 // what a translation filter does before fixing the checksum
	if p.ChecksumOK() {
		t.Fatal("checksum did not detect rewritten destination")
	}
	p.FixChecksum()
	if !p.ChecksumOK() {
		t.Fatal("re-fixed checksum invalid")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Packet{Payload: []byte{1, 2, 3}, Dst: &DstEntry{NextHop: 9}}
	q := p.Clone()
	q.Payload[0] = 99
	if p.Payload[0] != 1 {
		t.Fatal("clone shares payload with original")
	}
	// DstEntry values are immutable once published: filters replace the
	// pointer, never the fields, so the clone shares the entry.
	q.Dst = &DstEntry{NextHop: 1}
	if p.Dst.NextHop != 9 {
		t.Fatal("replacing the clone's Dst pointer must not touch the original")
	}
}

// TestChecksumMatchesReference pins the split header/payload checksum to
// the original single-buffer RFC 1071 implementation over a spread of
// payload lengths (every tail length of the 64-bit word sum) and field
// patterns; the longest payload is all ones, so every word carries.
func TestChecksumMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 15, 16, 1447, 1448, 1536, 2 * 1448} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
			if n > 1536 {
				payload[i] = 0xFF
			}
		}
		p := &Packet{
			SrcIP: MakeAddr(203, 0, 113, 9), DstIP: MakeAddr(10, 0, 0, 3),
			Proto: ProtoTCP, TTL: 63, SrcPort: 5123, DstPort: 80,
			Seq: 0xDEADBEEF, Ack: 0x01020304, Flags: FlagACK | FlagPSH,
			Window: 65535, TSVal: 123456, TSEcr: 654321,
			Payload: payload,
		}
		saved := p.Checksum
		p.Checksum = 0
		want := internetChecksum(p.Marshal())
		p.Checksum = saved
		if got := p.ComputeChecksum(); got != want {
			t.Fatalf("len=%d: ComputeChecksum=%#x, reference=%#x", n, got, want)
		}
	}
}

func TestFlowKeyMatch(t *testing.T) {
	k := FlowKey{RemoteIP: MakeAddr(10, 0, 0, 2), RemotePort: 5000, LocalPort: 80, Proto: ProtoTCP}
	in := &Packet{Proto: ProtoTCP, SrcIP: MakeAddr(10, 0, 0, 2), SrcPort: 5000, DstIP: MakeAddr(10, 0, 0, 1), DstPort: 80}
	if !k.MatchesIncoming(in) {
		t.Fatal("flow key should match")
	}
	other := *in
	other.SrcPort = 5001
	if k.MatchesIncoming(&other) {
		t.Fatal("flow key matched wrong port")
	}
	udp := *in
	udp.Proto = ProtoUDP
	if k.MatchesIncoming(&udp) {
		t.Fatal("flow key matched wrong proto")
	}
}

func TestTransferTime(t *testing.T) {
	lp := LinkParams{Bandwidth: 1e9}
	// 125 bytes = 1000 bits = 1µs at 1 Gb/s.
	if got := lp.TransferTime(125); got != time.Microsecond {
		t.Fatalf("TransferTime = %v, want 1µs", got)
	}
	if (LinkParams{}).TransferTime(1000) != 0 {
		t.Fatal("zero-bandwidth link should have zero transfer time")
	}
}

func TestSwitchDelivery(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	a := sw.Attach("a", MakeAddr(192, 168, 0, 1), GigabitEthernet)
	b := sw.Attach("b", MakeAddr(192, 168, 0, 2), GigabitEthernet)
	var got *Packet
	b.SetHandler(HandlerFunc(func(p *Packet) { got = p }))
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr, Proto: ProtoUDP, Payload: []byte("x")})
	s.Run()
	if got == nil || string(got.Payload) != "x" {
		t.Fatal("switch did not deliver")
	}
	if a.TxPackets != 1 || b.RxPackets != 1 {
		t.Fatal("counters wrong")
	}
}

func TestSwitchDropsUnknownDestination(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	a := sw.Attach("a", MakeAddr(192, 168, 0, 1), GigabitEthernet)
	a.Send(&Packet{SrcIP: a.Addr, DstIP: MakeAddr(192, 168, 0, 99)})
	s.Run()
	if sw.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", sw.Dropped)
	}
}

func TestSwitchDetach(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	a := sw.Attach("a", MakeAddr(192, 168, 0, 1), GigabitEthernet)
	b := sw.Attach("b", MakeAddr(192, 168, 0, 2), GigabitEthernet)
	sw.Detach(b)
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr})
	s.Run()
	if sw.Dropped != 1 {
		t.Fatal("packet to detached node not dropped")
	}
}

func TestBroadcastRouterReplicatesToAllServers(t *testing.T) {
	s := simtime.NewScheduler()
	cluster := MakeAddr(203, 0, 113, 10)
	r := NewBroadcastRouter(s, cluster)
	var hits [3]int
	var nics [3]*NIC
	for i := range nics {
		i := i
		nics[i] = r.AttachServer("srv", GigabitEthernet)
		nics[i].SetHandler(HandlerFunc(func(p *Packet) { hits[i]++ }))
	}
	cli := r.AttachExternal("cli", MakeAddr(198, 51, 100, 1), GigabitEthernet)
	cli.Send(&Packet{SrcIP: cli.Addr, DstIP: cluster, Proto: ProtoUDP, DstPort: 27960})
	s.Run()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("server %d received %d copies, want 1", i, h)
		}
	}
	if r.Broadcasts != 1 {
		t.Fatalf("Broadcasts = %d", r.Broadcasts)
	}
}

func TestBroadcastRouterClonesPerServer(t *testing.T) {
	s := simtime.NewScheduler()
	cluster := MakeAddr(203, 0, 113, 10)
	r := NewBroadcastRouter(s, cluster)
	var seen []*Packet
	for i := 0; i < 2; i++ {
		n := r.AttachServer("srv", GigabitEthernet)
		n.SetHandler(HandlerFunc(func(p *Packet) { seen = append(seen, p) }))
	}
	cli := r.AttachExternal("cli", MakeAddr(198, 51, 100, 1), GigabitEthernet)
	cli.Send(&Packet{SrcIP: cli.Addr, DstIP: cluster, Payload: []byte{7}})
	s.Run()
	if len(seen) != 2 {
		t.Fatalf("copies = %d", len(seen))
	}
	seen[0].Payload[0] = 42
	if seen[1].Payload[0] != 7 {
		t.Fatal("server copies alias the same payload")
	}
}

func TestBroadcastRouterServerToClient(t *testing.T) {
	s := simtime.NewScheduler()
	cluster := MakeAddr(203, 0, 113, 10)
	r := NewBroadcastRouter(s, cluster)
	srv := r.AttachServer("srv", GigabitEthernet)
	got := 0
	cli := r.AttachExternal("cli", MakeAddr(198, 51, 100, 1), GigabitEthernet)
	cli.SetHandler(HandlerFunc(func(p *Packet) { got++ }))
	srv.Send(&Packet{SrcIP: cluster, DstIP: cli.Addr})
	s.Run()
	if got != 1 {
		t.Fatalf("client received %d packets", got)
	}
	if r.Broadcasts != 0 {
		t.Fatal("outbound packet was broadcast")
	}
}

func TestBroadcastRouterDetachServer(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewBroadcastRouter(s, MakeAddr(203, 0, 113, 10))
	a := r.AttachServer("a", GigabitEthernet)
	r.AttachServer("b", GigabitEthernet)
	if r.ServerCount() != 2 {
		t.Fatal("server count")
	}
	r.DetachServer(a)
	if r.ServerCount() != 1 {
		t.Fatal("detach failed")
	}
}

func TestEgressSerialization(t *testing.T) {
	// Two back-to-back sends must queue: second arrival = 2*transfer + latency.
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	lp := LinkParams{Bandwidth: 1e9, Latency: 100 * time.Microsecond}
	a := sw.Attach("a", MakeAddr(10, 0, 0, 1), lp)
	b := sw.Attach("b", MakeAddr(10, 0, 0, 2), lp)
	var arrivals []simtime.Time
	b.SetHandler(HandlerFunc(func(p *Packet) { arrivals = append(arrivals, s.Now()) }))
	payload := make([]byte, 125000-headerBytes) // 1ms at 1Gb/s
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr, Payload: payload})
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr, Payload: payload})
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	want1 := time.Millisecond + 100*time.Microsecond
	want2 := 2*time.Millisecond + 100*time.Microsecond
	if arrivals[0] != want1 || arrivals[1] != want2 {
		t.Fatalf("arrivals = %v, want [%v %v]", arrivals, want1, want2)
	}
}

type recSniffer struct{ n int }

func (r *recSniffer) Capture(at simtime.Time, dir string, p *Packet) { r.n++ }

func TestSnifferSeesBothDirections(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	a := sw.Attach("a", MakeAddr(10, 0, 0, 1), GigabitEthernet)
	b := sw.Attach("b", MakeAddr(10, 0, 0, 2), GigabitEthernet)
	b.SetHandler(HandlerFunc(func(p *Packet) {
		reply := &Packet{SrcIP: b.Addr, DstIP: a.Addr}
		b.Send(reply)
	}))
	tap := &recSniffer{}
	a.AttachSniffer(tap)
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr})
	s.Run()
	if tap.n != 2 { // one tx, one rx
		t.Fatalf("sniffer saw %d packets, want 2", tap.n)
	}
}

func TestFlagString(t *testing.T) {
	if FlagString(FlagSYN|FlagACK) != "SYN|ACK" {
		t.Fatalf("got %q", FlagString(FlagSYN|FlagACK))
	}
	if FlagString(0) != "-" {
		t.Fatal("empty flags")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	sw.Attach("a", MakeAddr(10, 0, 0, 1), GigabitEthernet)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate address did not panic")
		}
	}()
	sw.Attach("a2", MakeAddr(10, 0, 0, 1), GigabitEthernet)
}

func TestLinkLossModel(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	lossy := LinkParams{Bandwidth: 1e9, Latency: 50 * 1e3, LossRate: 0.2}
	a := sw.Attach("a", MakeAddr(10, 0, 0, 1), lossy)
	b := sw.Attach("b", MakeAddr(10, 0, 0, 2), GigabitEthernet)
	got := 0
	b.SetHandler(HandlerFunc(func(p *Packet) { got++ }))
	const n = 2000
	for i := 0; i < n; i++ {
		a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr})
	}
	s.Run()
	if a.LossDropped == 0 {
		t.Fatal("lossy link dropped nothing")
	}
	if got+int(a.LossDropped) != n {
		t.Fatalf("accounting: %d delivered + %d dropped != %d", got, a.LossDropped, n)
	}
	rate := float64(a.LossDropped) / n
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("loss rate %v far from configured 0.2", rate)
	}
	// Deterministic: a rerun with the same topology drops identically.
	s2 := simtime.NewScheduler()
	sw2 := NewSwitch(s2)
	a2 := sw2.Attach("a", MakeAddr(10, 0, 0, 1), lossy)
	sw2.Attach("b", MakeAddr(10, 0, 0, 2), GigabitEthernet)
	for i := 0; i < n; i++ {
		a2.Send(&Packet{SrcIP: a2.Addr, DstIP: MakeAddr(10, 0, 0, 2)})
	}
	s2.Run()
	if a2.LossDropped != a.LossDropped {
		t.Fatalf("loss model not deterministic: %d vs %d", a2.LossDropped, a.LossDropped)
	}
}
