// Package netsim models the physical network of the single-IP-address
// cluster from the paper: IPv4/TCP/UDP packets, network interfaces, links
// with bandwidth and latency, the broadcast router that replicates every
// incoming public packet to all DVE server nodes, and the in-cluster
// switch used for private communication.
package netsim

import (
	"encoding/binary"
	"fmt"

	"dvemig/internal/simtime"
)

// payloadBufCap is the capacity of pooled payload buffers: one Ethernet
// MTU plus slack for jumbo checkpoint chunks staying under 1536.
const payloadBufCap = 1536

// maxFreePackets bounds each of a Pool's free lists, the same way simtime
// bounds its event free list, so a burst of in-flight packets does not
// pin memory for the rest of the simulation.
const maxFreePackets = 4096

// Pool holds one simulation's free lists of Packet structs and payload
// buffers. It has no locking: a pool belongs to one simtime.Scheduler
// (see PoolFor), and a scheduler runs on one goroutine, so a packet can
// never be handed to a concurrently running simulation. Every packet a
// pool mints carries a back-pointer to it, which is how Release and
// Clone find the pool without context.
type Pool struct {
	pkts []*Packet
	bufs []*[payloadBufCap]byte
	live int
}

// poolKey keys a scheduler's packet pool (simtime.Scheduler.Local).
type poolKey struct{}

// PoolFor returns the packet pool of the simulation run by sched,
// creating it on first use.
func PoolFor(sched *simtime.Scheduler) *Pool {
	return sched.Local(poolKey{}, func() any { return new(Pool) }).(*Pool)
}

// Packet returns a zeroed packet owned by the pool. A nil pool returns
// a packet no pool owns.
func (pl *Pool) Packet() *Packet {
	if pl == nil {
		return new(Packet)
	}
	var p *Packet
	if n := len(pl.pkts); n > 0 {
		p = pl.pkts[n-1]
		pl.pkts[n-1] = nil
		pl.pkts = pl.pkts[:n-1]
		*p = Packet{}
	} else {
		p = new(Packet)
	}
	p.pool = pl
	pl.live++
	return p
}

// Payload returns a length-n byte slice, recycled from the pool's buffer
// list when n fits a pooled buffer. The buffer returns to the pool when
// the pooled packet carrying it is released. A nil pool returns a fresh
// slice.
func (pl *Pool) Payload(n int) []byte {
	if pl == nil || n > payloadBufCap {
		return make([]byte, n)
	}
	if k := len(pl.bufs); k > 0 {
		b := pl.bufs[k-1]
		pl.bufs[k-1] = nil
		pl.bufs = pl.bufs[:k-1]
		return b[:n]
	}
	return new([payloadBufCap]byte)[:n]
}

// Live returns the number of packets the pool minted (Packet, Clone)
// that have not been released yet. A drained simulation whose count
// stays above zero leaked packets.
func (pl *Pool) Live() int { return pl.live }

// put recycles a released packet and its payload buffer.
func (pl *Pool) put(p *Packet) {
	pl.live--
	if b := p.Payload; cap(b) == payloadBufCap && len(pl.bufs) < maxFreePackets {
		pl.bufs = append(pl.bufs, (*[payloadBufCap]byte)(b[:payloadBufCap]))
	}
	p.Payload = nil
	if len(pl.pkts) < maxFreePackets {
		pl.pkts = append(pl.pkts, p)
	}
}

// GetPayload returns a fresh length-n byte slice for a packet that no
// pool owns; Release leaves it to the garbage collector.
func GetPayload(n int) []byte { return (*Pool)(nil).Payload(n) }

// NewPacket returns a zeroed packet that no pool owns; Release leaves it
// to the garbage collector, and so do clones of it. Simulation code
// mints from its stack's pool instead.
func NewPacket() *Packet { return (*Pool)(nil).Packet() }

// Release ends the packet's life. It must be called exactly once, by the
// packet's last owner, at a point where the packet provably has no other
// referents: drop paths in the fabric and the stack, after the receiving
// socket consumed the bytes, or after an acknowledged segment leaves the
// write queue. A pooled packet and its payload buffer go back to the
// pool of the simulation that minted it, where the very next Packet or
// Clone may hand the struct out again: fields must not be read after
// Release. A second Release before that reuse is a no-op; after it, it
// would release the new owner's packet. The pool is per simulation, so
// such a bug corrupts only the simulation that has it. A packet no pool
// owns (NewPacket, Unmarshal, a literal) is left to the garbage
// collector.
func (p *Packet) Release() {
	if p.released {
		return
	}
	p.released = true
	if p.pool != nil {
		p.pool.put(p)
	}
}

// Addr is an IPv4 address.
type Addr uint32

// MakeAddr builds an address from dotted-quad components.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Protocol numbers, matching IANA assignments.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// TCP header flag bits.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// Packet is a simulated IP datagram carrying either a TCP segment or a UDP
// datagram. Header fields are kept as plain struct members; Marshal
// produces a canonical wire encoding used for checksums, size accounting
// and serialization across the simulated network.
type Packet struct {
	// IP header.
	SrcIP Addr
	DstIP Addr
	Proto byte
	TTL   byte

	// Transport header (shared field layout for TCP and UDP).
	SrcPort uint16
	DstPort uint16

	// TCP-only fields.
	Seq      uint32
	Ack      uint32
	Flags    byte
	Window   uint16
	TSVal    uint32 // TCP timestamp option: sender jiffies
	TSEcr    uint32 // TCP timestamp option: echoed timestamp
	Checksum uint16

	Payload []byte

	// Dst is the destination cache entry the packet inherited from its
	// originating socket (see paper §V-D); nil for forwarded packets.
	Dst *DstEntry

	// Trace carries the causal trace context of the migration (or
	// failover checkpoint stream) this packet belongs to. It is
	// out-of-band simulator metadata: not part of the canonical wire
	// encoding, never checksummed, and nil for ordinary application
	// traffic. One immutable TraceRef is shared by every packet of a
	// stamped socket (a pointer, not two inline words, so the common
	// unstamped path pays one nil word per packet); Clone's struct copy
	// preserves it across hops.
	Trace *TraceRef

	// Class tags the traffic class the packet belongs to. Like Trace it
	// is out-of-band metadata — never marshalled, never checksummed —
	// used by NIC accounting to break migration traffic out of the
	// aggregate: the post-copy page-pull channel stamps ClassPagePull so
	// the degraded-window analysis can see exactly how much pull traffic
	// shared the wire with the application.
	Class byte

	// pool is the simulation pool that minted the packet, nil for
	// packets no pool owns; released guards it against double-Release
	// (see Release). Out-of-band; never marshalled.
	pool     *Pool
	released bool
}

// Traffic classes (Packet.Class).
const (
	// ClassDefault is ordinary application or control traffic.
	ClassDefault byte = iota
	// ClassPagePull marks post-copy demand-pull and prefetch traffic on
	// the migration control connection after the destination resumed.
	ClassPagePull
	// ClassCheckpoint marks checkpoint-transfer traffic on the migd
	// control connection: precopy deltas, the freeze image and chunk
	// streams. Post-copy restamps the connection to ClassPagePull at
	// handover, so the two classes partition migration traffic by phase.
	ClassCheckpoint
)

// TraceRef is a causal trace coordinate — the trace ID and the deciding
// span's ID, mirroring obs.TraceContext without importing it (netsim
// must stay obs-free). Treat as immutable once attached to a socket.
type TraceRef struct {
	Trace uint64
	Span  uint64
}

// DstEntry models a Linux IP destination cache entry: the resolved next
// hop for a flow. During local address translation the entry inherited
// from the peer's socket still points at the pre-migration address, so the
// translation filter must replace it (paper §V-D).
type DstEntry struct {
	NextHop Addr
	Iface   string
}

// headerBytes is the canonical encoded header size (a simplified fixed
// layout: 20-byte IP header plus a 20-byte transport header with a 12-byte
// timestamp option area, mirroring a typical TCP header with options).
const headerBytes = 52

// Len returns the total wire length of the packet in bytes, which drives
// the link-level transfer-time model.
func (p *Packet) Len() int { return headerBytes + len(p.Payload) }

// Clone returns a copy with a private payload buffer, drawn from the
// packet's own pool (a clone of a packet no pool owns is unowned too).
// The broadcast router clones packets so each node can mangle its copy
// independently (netfilter hooks rewrite headers in place). The
// destination cache entry is shared: DstEntry values are immutable once
// published — translation filters replace the pointer, never the fields.
func (p *Packet) Clone() *Packet {
	q := p.pool.Packet()
	*q = *p
	q.released = false
	q.Payload = nil
	if len(p.Payload) > 0 {
		q.Payload = p.pool.Payload(len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return q
}

// marshalHeader encodes the 52-byte canonical header into buf.
func (p *Packet) marshalHeader(buf []byte) {
	binary.BigEndian.PutUint32(buf[0:], uint32(p.SrcIP))
	binary.BigEndian.PutUint32(buf[4:], uint32(p.DstIP))
	buf[8] = p.Proto
	buf[9] = p.TTL
	binary.BigEndian.PutUint16(buf[10:], p.SrcPort)
	binary.BigEndian.PutUint16(buf[12:], p.DstPort)
	binary.BigEndian.PutUint32(buf[14:], p.Seq)
	binary.BigEndian.PutUint32(buf[18:], p.Ack)
	buf[22] = p.Flags
	binary.BigEndian.PutUint16(buf[23:], p.Window)
	binary.BigEndian.PutUint32(buf[25:], p.TSVal)
	binary.BigEndian.PutUint32(buf[29:], p.TSEcr)
	binary.BigEndian.PutUint16(buf[33:], p.Checksum)
	for i := 35; i < headerBytes; i++ {
		buf[i] = 0
	}
}

// Marshal encodes the packet into the canonical wire format.
func (p *Packet) Marshal() []byte {
	buf := make([]byte, headerBytes+len(p.Payload))
	p.marshalHeader(buf)
	copy(buf[headerBytes:], p.Payload)
	return buf
}

// Unmarshal decodes a packet from the canonical wire format.
func Unmarshal(buf []byte) (*Packet, error) {
	if len(buf) < headerBytes {
		return nil, fmt.Errorf("netsim: short packet: %d bytes", len(buf))
	}
	p := &Packet{
		SrcIP:    Addr(binary.BigEndian.Uint32(buf[0:])),
		DstIP:    Addr(binary.BigEndian.Uint32(buf[4:])),
		Proto:    buf[8],
		TTL:      buf[9],
		SrcPort:  binary.BigEndian.Uint16(buf[10:]),
		DstPort:  binary.BigEndian.Uint16(buf[12:]),
		Seq:      binary.BigEndian.Uint32(buf[14:]),
		Ack:      binary.BigEndian.Uint32(buf[18:]),
		Flags:    buf[22],
		Window:   binary.BigEndian.Uint16(buf[23:]),
		TSVal:    binary.BigEndian.Uint32(buf[25:]),
		TSEcr:    binary.BigEndian.Uint32(buf[29:]),
		Checksum: binary.BigEndian.Uint16(buf[33:]),
		Payload:  append([]byte(nil), buf[headerBytes:]...),
	}
	return p, nil
}

// ComputeChecksum returns the Internet checksum over the packet's
// pseudo-header and payload with the checksum field zeroed, following RFC
// 1071 folding. Translation filters must recompute it after rewriting
// addresses (paper §V-D). The sum is computed without materializing the
// wire encoding: the header goes through a stack buffer and the payload
// is summed in place (the header length is even, so the two partial sums
// compose exactly as in the single-buffer form).
func (p *Packet) ComputeChecksum() uint16 {
	var hdr [headerBytes]byte
	saved := p.Checksum
	p.Checksum = 0
	p.marshalHeader(hdr[:])
	p.Checksum = saved
	sum := sumWords(sumWords(0, hdr[:]), p.Payload)
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// sumWords adds b to an Internet-checksum accumulator, 64 bits at a
// time. Each 64-bit big-endian word contributes its two 32-bit halves;
// because 2^16 ≡ 1 (mod 0xFFFF), 32-bit words fold to the same ones'
// complement sum as RFC 1071's 16-bit words. b must start at an even
// offset within the summed buffer; the accumulator cannot overflow for
// anything shorter than 2^33 bytes.
func sumWords(sum uint64, b []byte) uint64 {
	for len(b) >= 8 {
		w := binary.BigEndian.Uint64(b)
		sum += w>>32 + w&0xFFFFFFFF
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// FixChecksum recomputes and stores the checksum.
func (p *Packet) FixChecksum() { p.Checksum = p.ComputeChecksum() }

// ChecksumOK reports whether the stored checksum matches the content.
func (p *Packet) ChecksumOK() bool { return p.Checksum == p.ComputeChecksum() }

func internetChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// FlagString renders TCP flags, e.g. "SYN|ACK".
func FlagString(f byte) string {
	s := ""
	add := func(bit byte, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(FlagSYN, "SYN")
	add(FlagFIN, "FIN")
	add(FlagRST, "RST")
	add(FlagPSH, "PSH")
	add(FlagACK, "ACK")
	if s == "" {
		s = "-"
	}
	return s
}

// String renders a one-line summary used by the tracer.
func (p *Packet) String() string {
	proto := "UDP"
	if p.Proto == ProtoTCP {
		proto = "TCP"
	}
	return fmt.Sprintf("%s %s:%d > %s:%d %s seq=%d ack=%d len=%d",
		proto, p.SrcIP, p.SrcPort, p.DstIP, p.DstPort, FlagString(p.Flags), p.Seq, p.Ack, len(p.Payload))
}

// FlowKey identifies one direction of a transport flow; it is the match
// key used by capture filters (remote IP, remote port, local port — paper
// §III-B uses exactly this triple, and we add the protocol).
type FlowKey struct {
	RemoteIP   Addr
	RemotePort uint16
	LocalPort  uint16
	Proto      byte
}

// MatchesIncoming reports whether an incoming packet belongs to the flow.
func (k FlowKey) MatchesIncoming(p *Packet) bool {
	return p.Proto == k.Proto && p.SrcIP == k.RemoteIP &&
		p.SrcPort == k.RemotePort && p.DstPort == k.LocalPort
}

// Sniffer receives a copy of every packet delivered on the interface it is
// attached to; it is the tcpdump of the simulation (used for Fig 4).
type Sniffer interface {
	Capture(at simtime.Time, dir string, p *Packet)
}
