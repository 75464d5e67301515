package main

import (
	"fmt"
	"sort"
	"strings"

	"dvemig/internal/obs"
	"dvemig/internal/simprof"
)

// tracer is one traced simulation's instrumentation: a stride-1
// self-profiler (event-loop buckets, sweep occupancy, phase skew) and
// the observability snapshots the run harvested.
type tracer struct {
	prof  *simprof.Profiler
	snaps []*obs.Snapshot
}

func newTracer() *tracer { return &tracer{prof: simprof.New(1)} }

func (t *tracer) addSnap(s *obs.Snapshot) { t.snaps = append(t.snaps, s) }

// layerOf maps a simprof event-loop bucket (the event name's prefix
// before the first '.' or '/') onto the repository's layers. "" means
// the bucket is unmapped; the report counts and names such events.
func layerOf(bucket string) string {
	switch {
	case bucket == "netsim":
		return "netsim"
	case bucket == "tcp":
		return "netstack"
	case bucket == "migd":
		return "migration"
	case strings.HasPrefix(bucket, "ctlplane"):
		return "ctlplane"
	case bucket == "cond":
		return "lb"
	case strings.HasPrefix(bucket, "zone_serv"), strings.HasPrefix(bucket, "svc"), bucket == "dve":
		return "app"
	case bucket == "eval", bucket == "soak", bucket == "obs", bucket == "faults":
		return "harness"
	}
	return ""
}

// busyLayers are the layers whose event-loop busy time is reported. A
// bucket's busy time is the wall time of its events' callbacks, which
// includes every downstream call made inside them (a netsim delivery
// runs the receiving stack's TCP input): it is inclusive, not self time.
var busyLayers = []string{"netsim", "netstack", "migration", "ctlplane", "lb", "app", "harness"}

// skewPhases are the migration phases whose wall time is reported.
var skewPhases = []string{"precopy", "freeze", "transfer", "restore", "reinject", "pull", "prefetch"}

// layerAcc accumulates traced simulations into per-layer figures.
type layerAcc struct {
	inputs     int // traced inputs
	sims       int // traced simulations (soak: cells)
	events     uint64
	loopWallNs int64
	unmappedNs int64
	pendingMax int
	busyNs     map[string]int64
	layerEvs   map[string]uint64
	unmapped   map[string]uint64
	ctr        map[string]uint64 // summed observability counters, by kind
	phaseWall  map[string]int64
	skewSimNs  int64
	skewWallNs int64
	occupancy  []float64

	// Engine and control-plane counts (from outcomes).
	captured, reinjected, freezeSock, precopySock, tcpMigrated uint64
	rounds, memPage, freezeMem, retries                        uint64
	ctl                                                        ctlCounts
	decisions                                                  int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		busyNs: map[string]int64{}, layerEvs: map[string]uint64{}, unmapped: map[string]uint64{},
		ctr: map[string]uint64{}, phaseWall: map[string]int64{},
	}
}

// counterKind folds a harvested counter name onto the totals the layer
// report sums over every link and stack.
func counterKind(name string) string {
	switch {
	case name == "simtime/events_fired_total":
		return "fired"
	case name == "simtime/events_canceled_total":
		return "canceled"
	case strings.HasPrefix(name, "link/"):
		for _, k := range []string{"rx_packets", "tx_bytes", "fault_dropped"} {
			if strings.HasSuffix(name, "/"+k) {
				return k
			}
		}
	case strings.HasPrefix(name, "stack/"):
		for _, k := range []string{"delivered", "no_socket_drops", "hook_drops", "tcp_retransmits"} {
			if strings.HasSuffix(name, "/"+k) {
				return k
			}
		}
	}
	return ""
}

// add folds one traced input into the accumulator.
func (a *layerAcc) add(tr *tracer, o *outcome) {
	a.inputs++
	a.sims += o.sims
	rep := tr.prof.Report()
	if lt := rep.EventLoopTotal; lt != nil {
		a.events += lt.Events
		a.loopWallNs += lt.WallNs
		if lt.PendingMax > a.pendingMax {
			a.pendingMax = lt.PendingMax
		}
		for _, b := range lt.Buckets {
			layer := layerOf(b.Subsystem)
			if layer == "" {
				a.unmapped[b.Subsystem] += b.Events
				a.unmappedNs += b.WallNs
				continue
			}
			a.busyNs[layer] += b.WallNs
			a.layerEvs[layer] += b.Events
		}
	}
	for _, sw := range rep.Sweeps {
		for _, w := range sw.Workers {
			a.occupancy = append(a.occupancy, w.Occupancy)
		}
	}
	for _, ps := range rep.PhaseSkewTotal {
		a.phaseWall[ps.Phase] += ps.WallNs
		a.skewSimNs += ps.SimNs
		a.skewWallNs += ps.WallNs
	}
	for _, s := range tr.snaps {
		for _, c := range s.Counters {
			if k := counterKind(c.Name); k != "" {
				a.ctr[k] += c.Value
			}
		}
	}
	for _, m := range o.engine {
		a.captured += uint64(m.Captured)
		a.reinjected += uint64(m.Reinjected)
		a.freezeSock += m.FreezeSockBytes
		a.precopySock += m.PrecopySockBytes
		a.tcpMigrated += uint64(m.TCPMigrated)
		a.rounds += uint64(m.Rounds)
		a.memPage += m.MemPageBytes
		a.freezeMem += m.FreezeMemBytes
		a.retries += uint64(m.Retries)
	}
	a.ctl.dispatches += o.ctl.dispatches
	a.ctl.resends += o.ctl.resends
	a.ctl.takeovers += o.ctl.takeovers
	a.ctl.completed += o.ctl.completed
	a.decisions += o.decisions
}

// metrics renders the accumulated per-layer figures. Counts, bytes and
// busy times are per simulation (a soak cell, a DVE run, one Fig 4 or
// Fig 5b migration). untracedInputS is the median untraced wall time
// of one input, the base of the throughput figure.
func (a *layerAcc) metrics(untracedInputS float64) map[string]float64 {
	sims := float64(a.sims)
	per := func(v float64) float64 { return ratio(v, sims) }
	m := map[string]float64{
		"simtime.events":           per(float64(a.events)),
		"simtime.cancel_ratio":     ratio(float64(a.ctr["canceled"]), float64(a.ctr["fired"]+a.ctr["canceled"])),
		"simtime.pending_max":      float64(a.pendingMax),
		"simtime.events_per_s":     ratio(ratio(float64(a.events), float64(a.inputs)), untracedInputS),
		"netsim.rx_packets":        per(float64(a.ctr["rx_packets"])),
		"netsim.tx_bytes":          per(float64(a.ctr["tx_bytes"])),
		"netsim.fault_dropped":     per(float64(a.ctr["fault_dropped"])),
		"netstack.useful_frac":     ratio(float64(a.ctr["delivered"]), float64(a.ctr["delivered"]+a.ctr["no_socket_drops"])),
		"netstack.retransmits":     per(float64(a.ctr["tcp_retransmits"])),
		"netstack.hook_drops":      per(float64(a.ctr["hook_drops"])),
		"capture.captured":         per(float64(a.captured)),
		"capture.reinjected":       per(float64(a.reinjected)),
		"sockmig.freeze_bytes":     per(float64(a.freezeSock)),
		"sockmig.precopy_bytes":    per(float64(a.precopySock)),
		"sockmig.tcp_migrated":     per(float64(a.tcpMigrated)),
		"ckpt.rounds":              per(float64(a.rounds)),
		"ckpt.mem_page_bytes":      per(float64(a.memPage)),
		"ckpt.freeze_mem_bytes":    per(float64(a.freezeMem)),
		"migration.wall_per_sim":   ratio(float64(a.skewWallNs), float64(a.skewSimNs)),
		"migration.retries":        per(float64(a.retries)),
		"ctlplane.dispatches":      per(float64(a.ctl.dispatches)),
		"ctlplane.resends":         per(float64(a.ctl.resends)),
		"ctlplane.takeovers":       per(float64(a.ctl.takeovers)),
		"ctlplane.useful_frac":     ratio(float64(a.ctl.completed), float64(a.ctl.dispatches)),
		"lb.decisions":             per(float64(a.decisions)),
		"harness.worker_occupancy": ratio(sum(a.occupancy), float64(len(a.occupancy))),
		"trace.attributed_frac":    ratio(float64(a.loopWallNs-a.unmappedNs), float64(a.loopWallNs)),
		"trace.unmapped_events":    per(float64(sumCounts(a.unmapped))),
	}
	for _, l := range busyLayers {
		m[l+".events"] = per(float64(a.layerEvs[l]))
		m[l+".busy_s"] = per(float64(a.busyNs[l]) / 1e9)
		m[l+".busy_frac"] = ratio(float64(a.busyNs[l]), float64(a.loopWallNs))
	}
	for _, ph := range skewPhases {
		m["migration.phase."+ph+".wall_ms"] = per(float64(a.phaseWall[ph]) / 1e6)
	}
	return m
}

func sumCounts(m map[string]uint64) uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}

// shareTable renders each layer's share of event-loop dispatch time,
// largest first, plus any unmapped bucket.
func (a *layerAcc) shareTable() string {
	var b strings.Builder
	if a.loopWallNs == 0 {
		return "layer shares: no event-loop hook on this workload\n"
	}
	type row struct {
		name string
		ns   int64
		evs  uint64
	}
	var rows []row
	for _, l := range busyLayers {
		rows = append(rows, row{l, a.busyNs[l], a.layerEvs[l]})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ns > rows[j].ns })
	fmt.Fprintf(&b, "layer shares of event-loop dispatch time (inclusive of downstream calls):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %6.1f%%  %12d events\n", r.name, 100*ratio(float64(r.ns), float64(a.loopWallNs)), r.evs)
	}
	names := make([]string, 0, len(a.unmapped))
	for n := range a.unmapped {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  unmapped bucket %q: %d events\n", n, a.unmapped[n])
	}
	return b.String()
}
