package eval

import (
	"fmt"
	"strings"

	"dvemig/internal/flight"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
)

// The scenario batteries (chaos, failover, soak, strategy race) share
// one shape: a grid of (scenario, seed) cells, each a private
// simulation wired with the same per-cell instrumentation and ended by
// the same drain. This file is that shape; the batteries supply only
// their scenarios, their cluster and their audits.

// scenario is a battery's named fault script.
type scenario interface{ name() string }

func (sc ChaosScenario) name() string    { return sc.Name }
func (sc FailoverScenario) name() string { return sc.Name }
func (sc SoakScenario) name() string     { return sc.Name }

// runGrid runs run over every (scenario, seed) cell, scenario-major and
// seed-minor, on up to workers goroutines with sp as the sweep's
// occupancy record (nil for none). A failing cell's error is wrapped as
// "<kind> <scenario name> seed <seed>: ". The results come back in cell
// order, bit-identical at any worker count; see RunParallel.
func runGrid[S scenario, R any](kind string, scenarios []S, seeds []uint64,
	workers int, sp *simprof.SweepProf, run func(S, uint64) (R, error)) ([]R, error) {
	type cell struct {
		sc   S
		seed uint64
	}
	cells := make([]cell, 0, len(scenarios)*len(seeds))
	for _, sc := range scenarios {
		for _, seed := range seeds {
			cells = append(cells, cell{sc: sc, seed: seed})
		}
	}
	return RunParallel(cells, workers, sp, func(c cell) (R, error) {
		res, err := run(c.sc, c.seed)
		if err != nil {
			var zero R
			return zero, fmt.Errorf("%s %s seed %d: %w", kind, c.sc.name(), c.seed, err)
		}
		return res, nil
	})
}

// cellPlane is one cell's instrumentation: the observability plane, the
// self-profiling records and the flight recorder, each nil when the
// cell's config asks for none. None of them schedules events or touches
// virtual time, so a cell's simulated outputs are identical with or
// without any of them.
type cellPlane struct {
	sched *simtime.Scheduler
	obs   *obs.Obs
	skew  *simprof.SkewProf
	fset  *flight.Set
}

// newCellPlane wires the cell's scheduler and nodes: an obs plane when
// observe, event-loop and phase-skew records under profLabel when prof
// is non-nil, and a flight recorder holding the last flightDepth events
// per track when flightDepth is positive.
func newCellPlane(cluster *proc.Cluster, observe bool, prof *simprof.Profiler, profLabel string, flightDepth int) cellPlane {
	pl := cellPlane{sched: cluster.Sched}
	if observe {
		pl.obs = obs.New(pl.sched)
	}
	if prof != nil {
		pl.sched.Prof = prof.Loop(profLabel)
		pl.skew = prof.Skew(profLabel)
	}
	if flightDepth > 0 {
		pl.fset = flight.NewSet(flightDepth)
		pl.sched.FR = pl.fset.Track("sched")
		for _, n := range cluster.Nodes {
			n.AttachFlight(pl.fset)
		}
	}
	return pl
}

// attach hands a migrator the cell's obs plane and phase-skew record.
func (pl *cellPlane) attach(m *migration.Migrator) {
	if pl.obs != nil {
		m.SetObs(pl.obs)
	}
	m.Prof = pl.skew
}

// drain runs the simulation to quiescence once the cell has stopped
// every periodic activity, hopping from event to event until the queue
// empties, and returns the events still pending. Every timer in the
// system is either canceled eagerly (tickers, migration leases,
// translation retries) or self-limiting (TCP retransmission gives up
// after MaxConsecRetrans — with full exponential backoff to MaxRTO that
// takes tens of simulated minutes, hence the hour-long horizon), so a
// healthy cell always ends at zero; nonzero means a leaked timer — an
// orphaned retransmit loop or an unstopped ticker holding the queue
// open.
func (pl *cellPlane) drain() int {
	limit := pl.sched.Now() + 3600*1e9
	for pl.sched.Pending() > 0 {
		next, _ := pl.sched.NextEventTime()
		if next > limit {
			break
		}
		pl.sched.RunUntil(next)
	}
	return pl.sched.Pending()
}

// finish harvests the cluster's totals into the obs registry and
// captures the plane under label (nil when unobserved), and returns the
// flight recorder's retained window when dump is set ("" otherwise).
func (pl *cellPlane) finish(cluster *proc.Cluster, label string, dump bool) (*obs.Capture, string) {
	var c *obs.Capture
	if pl.obs != nil {
		obs.HarvestCluster(pl.obs.Metrics, cluster)
		c = pl.obs.Capture(label)
	}
	if pl.fset == nil || !dump {
		return c, ""
	}
	var b strings.Builder
	pl.fset.Dump(&b)
	return c, b.String()
}

// observed is a battery result that may carry an obs capture.
type observed interface{ capture() *obs.Capture }

func (r *ChaosResult) capture() *obs.Capture { return r.Obs }
func (r *SoakResult) capture() *obs.Capture  { return r.Obs }

// captures lists the results' observability captures in result (cell)
// order, skipping unobserved cells. Feeding them to the obs exporters
// in this canonical order keeps artifacts bit-identical at any sweep
// worker count.
func captures[R observed](results []R) []*obs.Capture {
	var out []*obs.Capture
	for _, res := range results {
		if c := res.capture(); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// mergedSnapshot sums the captures' metric snapshots in order (nil when
// there are none). All cells share one histogram configuration, so the
// bounds-mismatch error cannot fire; it is surfaced anyway rather than
// swallowed.
func mergedSnapshot(caps []*obs.Capture) (*obs.Snapshot, error) {
	if len(caps) == 0 {
		return nil, nil
	}
	snaps := make([]*obs.Snapshot, len(caps))
	for i, c := range caps {
		snaps[i] = c.Snap
	}
	return obs.MergeSnapshots(snaps...)
}
