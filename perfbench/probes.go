package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"dvemig/internal/ckpt"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
)

// Layer probes time one public layer function directly, sized from the
// workload it explains, and verify their own round trip. They run in
// the traced mode only; each returns its figure or an error.

const (
	probeSockets = 1024 // fig5b-1024's established connections
	probePages   = 8192 // fig4-openarena's 32 MB dense address space
	probeStream  = 32 << 20
	probeFrame   = 64 << 10
	probePacket  = 256 // the MMPOG update size of §VI-C
)

// probeSockmig times FullDelta → EncodeInto → DecodeSockDelta →
// Store.Apply over a process holding probeSockets established TCP
// sockets, in ns per socket.
func probeSockmig() (float64, error) {
	sched := simtime.NewScheduler()
	cluster := proc.NewCluster(sched, 2)
	src := cluster.Nodes[0]
	p := src.Spawn("probe", 1)
	lst := netstack.NewTCPSocket(src.Stack)
	if err := lst.Listen(cluster.ClusterIP, 7000); err != nil {
		return 0, err
	}
	var accepted []*netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { accepted = append(accepted, ch) }
	host := cluster.NewExternalHost("players")
	for i := 0; i < probeSockets; i++ {
		if err := netstack.NewTCPSocket(host).Connect(cluster.ClusterIP, 7000); err != nil {
			return 0, err
		}
	}
	sched.RunFor(2e9)
	if len(accepted) != probeSockets {
		return 0, fmt.Errorf("sockmig probe: %d/%d connections established", len(accepted), probeSockets)
	}
	for _, sk := range accepted {
		p.FDs.Install(&proc.TCPFile{Sock: sk})
	}
	var buf []byte
	var walls []float64
	for rep := 0; rep < 15; rep++ {
		t0 := time.Now()
		d := sockmig.FullDelta(p)
		buf = d.EncodeInto(buf)
		d2, err := sockmig.DecodeSockDelta(buf)
		if err != nil {
			return 0, fmt.Errorf("sockmig probe: %w", err)
		}
		st := sockmig.NewStore()
		if err := st.Apply(d2); err != nil {
			return 0, fmt.Errorf("sockmig probe: %w", err)
		}
		walls = append(walls, float64(time.Since(t0).Nanoseconds()))
		if st.TCPCount() != probeSockets || !bytes.Equal(d2.Encode(), buf) {
			return 0, fmt.Errorf("sockmig probe: round trip kept %d sockets or changed bytes", st.TCPCount())
		}
	}
	return median(walls) / probeSockets, nil
}

// probeCkpt times MemDelta encode and decode over probePages dense
// (never-zero) pages, in MB/s of page content each way.
func probeCkpt(seed uint64) (enc, dec float64, err error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	d := &ckpt.MemDelta{Round: 1}
	for i := 0; i < probePages; i++ {
		data := make([]byte, proc.PageSize)
		rng.Read(data)
		for j := range data {
			data[j] |= 1
		}
		d.Pages = append(d.Pages, ckpt.PageImage{VMAStart: 0x40000000, Index: uint64(i), Data: data})
	}
	mb := float64(probePages*proc.PageSize) / 1e6
	var buf []byte
	var encW, decW []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		buf = d.EncodeInto(buf)
		t1 := time.Now()
		got, err := ckpt.DecodeMemDelta(buf)
		t2 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("ckpt probe: %w", err)
		}
		encW = append(encW, t1.Sub(t0).Seconds())
		decW = append(decW, t2.Sub(t1).Seconds())
		if len(got.Pages) != probePages {
			return 0, 0, fmt.Errorf("ckpt probe: decoded %d of %d pages", len(got.Pages), probePages)
		}
		for i := range got.Pages {
			if got.Pages[i].Index != d.Pages[i].Index || !bytes.Equal(got.Pages[i].Data, d.Pages[i].Data) {
				return 0, 0, fmt.Errorf("ckpt probe: page %d changed in the round trip", i)
			}
		}
	}
	return mb / median(encW), mb / median(decW), nil
}

// probePipe times a probeStream-byte migd message stream (Conn.Send →
// TCP over the in-cluster switch → Conn.OnMsg) in MB/s of host time.
func probePipe(seed uint64) (float64, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	frames := make([][]byte, probeStream/probeFrame)
	want := fnv.New64a()
	for i := range frames {
		frames[i] = make([]byte, probeFrame)
		rng.Read(frames[i])
		want.Write(frames[i])
	}
	var walls []float64
	for rep := 0; rep < 3; rep++ {
		sched := simtime.NewScheduler()
		c := proc.NewCluster(sched, 2)
		dst := c.Nodes[1]
		lst := netstack.NewTCPSocket(dst.Stack)
		if err := lst.Listen(dst.LocalIP, 7900); err != nil {
			return 0, err
		}
		got := fnv.New64a()
		var gotBytes, gotFrames int
		lst.OnAccept = func(ch *netstack.TCPSocket) {
			conn := migration.NewConn(ch)
			conn.OnMsg = func(_ migration.MsgType, payload []byte) {
				gotBytes += len(payload)
				gotFrames++
				got.Write(payload)
			}
		}
		sk := netstack.NewTCPSocket(c.Nodes[0].Stack)
		cl := migration.NewConn(sk)
		if err := sk.Connect(dst.LocalIP, 7900); err != nil {
			return 0, err
		}
		sched.RunFor(1e9)
		t0 := time.Now()
		for _, f := range frames {
			if err := cl.Send(migration.MsgChunk, f); err != nil {
				return 0, fmt.Errorf("pipe probe: %w", err)
			}
		}
		for step := 0; gotBytes < probeStream && step < 600; step++ {
			sched.RunFor(100e6)
		}
		walls = append(walls, time.Since(t0).Seconds())
		if gotBytes != probeStream || gotFrames != len(frames) || got.Sum64() != want.Sum64() {
			return 0, fmt.Errorf("pipe probe: %d/%d bytes in %d frames, content match %v",
				gotBytes, probeStream, gotFrames, got.Sum64() == want.Sum64())
		}
	}
	return float64(probeStream) / 1e6 / median(walls), nil
}

// probeFanout times the broadcast router fanning probePacket-byte
// packets from one client out to servers server NICs, in ns per sent
// packet; every server must receive every packet intact.
func probeFanout(servers int) (float64, error) {
	const packets, batch = 200000, 1000
	sched := simtime.NewScheduler()
	clusterIP := netsim.MakeAddr(192, 168, 0, 1)
	clientIP := netsim.MakeAddr(10, 0, 0, 1)
	r := netsim.NewBroadcastRouter(sched, clusterIP)
	got := make([]int, servers)
	bad := 0
	for i := 0; i < servers; i++ {
		nic := r.AttachServer(fmt.Sprintf("srv%d", i), netsim.GigabitEthernet)
		nic.SetHandler(netsim.HandlerFunc(func(p *netsim.Packet) {
			if len(p.Payload) != probePacket || p.Payload[0] != byte(p.Seq) {
				bad++
			}
			got[i]++
			p.Release()
		}))
	}
	ext := r.AttachExternal("client", clientIP, netsim.GigabitEthernet)
	t0 := time.Now()
	for sent := 0; sent < packets; {
		for k := 0; k < batch; k, sent = k+1, sent+1 {
			p := netsim.NewPacket()
			p.SrcIP, p.DstIP = clientIP, clusterIP
			p.SrcPort, p.DstPort = 27960, 27960
			p.Proto = netsim.ProtoUDP
			p.Seq = uint32(sent)
			p.Payload = netsim.GetPayload(probePacket)
			p.Payload[0] = byte(sent)
			ext.Send(p)
		}
		sched.RunFor(10e6)
	}
	wall := time.Since(t0)
	for i, n := range got {
		if n != packets || bad != 0 {
			return 0, fmt.Errorf("fanout probe: server %d received %d/%d packets, %d corrupted", i, n, packets, bad)
		}
	}
	return float64(wall.Nanoseconds()) / packets, nil
}

// runProbes runs every probe and returns its per-layer metrics.
func runProbes(seed uint64) (map[string]float64, error) {
	m := map[string]float64{}
	var err error
	if m["probe.sockmig.ns_per_sock"], err = probeSockmig(); err != nil {
		return nil, err
	}
	if m["probe.ckpt.encode_mb_s"], m["probe.ckpt.decode_mb_s"], err = probeCkpt(seed); err != nil {
		return nil, err
	}
	if m["probe.migration.pipe_mb_s"], err = probePipe(seed); err != nil {
		return nil, err
	}
	if m["probe.netsim.fanout3_ns"], err = probeFanout(3); err != nil {
		return nil, err
	}
	if m["probe.netsim.fanout5_ns"], err = probeFanout(5); err != nil {
		return nil, err
	}
	return m, nil
}
