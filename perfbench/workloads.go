package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/openarena"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
)

// A workload maps the benchmark seed onto a fixed list of simulation
// inputs. The timed loop cycles through the list closed-loop: each
// simulation starts when the previous one has returned.
type workload struct {
	name string
	why  string
	// inputs returns the run's distinct inputs for seed. Every input is
	// run at least once per run, so the simulated (fidelity) figures are
	// the same at any host speed.
	inputs func(seed uint64) []input
}

// input is one simulation the benchmark can run; tr is nil for an
// untraced run.
type input struct {
	label string
	run   func(tr *tracer) (*outcome, error)
}

// outcome is one input's result reduced to what the benchmark reports,
// checks and compares.
type outcome struct {
	sims       int // simulations the input ran (soak: cells)
	migrations int // completed live migrations
	succeeded  int // migrations that reached a terminal state, by kind
	failed     int
	aborted    int
	// downtimes holds one entry per completed migration, in simulated
	// milliseconds (freeze plus any post-copy stall).
	downtimes []float64
	// fidelity holds the workload's paper figures (see fidelityNames).
	fidelity map[string]float64
	// engine holds the completed migrations' engine metrics for the
	// layer report (a soak battery exposes them only when traced).
	engine []*migration.Metrics
	// ctl carries the control-plane counters of a soak battery and
	// decisions the conductors' decision-log length of a DVE run.
	ctl       ctlCounts
	decisions int
	// fingerprint is every simulated output that must repeat exactly for
	// the same input; checkErr is the correctness verdict.
	fingerprint string
	checkErr    error
}

type ctlCounts struct {
	dispatches, resends, takeovers, completed uint64
}

// fidelityNames are the simulated paper figures. They are exact for a
// given seed. Each workload's outcome fills the ones it produces, and
// runner.fidelity aggregates them over the run's inputs.
var fidelityNames = []string{
	"freeze_ms", "freeze_sock_kb", "client_delay_ms",
	"downtime_p50_ms", "downtime_p99_ms", "abort_rate",
	"cpu_spread_pct", "update_floor_hz",
}

var workloads = []*workload{
	{
		name:   "fig5b-1024",
		why:    "Fig 5b headline: 1024 TCP clients + MySQL, incremental collective; packet routing and TCP input dominate",
		inputs: fig5bInputs,
	},
	{
		name:   "fig4-openarena",
		why:    "Fig 4: 32 MB dense address space, 400 dirty pages per frame, 24 clients; chunk pipe and page codec dominate",
		inputs: fig4Inputs,
	},
	{
		name:   "soak-battery",
		why:    "6 chaos scenarios x 2 seeds, ~6,000 mixed-strategy migrations via ctlplane on 2 workers; many small migrations",
		inputs: soakInputs,
	},
	{
		name:   "fig5f-dve-lb",
		why:    "Fig 5f: 5 nodes, 10,000 clients, 900 s with the conductor on; timer-heavy event loop, only ~4 migrations",
		inputs: dveInputs,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ms converts a simulated duration to milliseconds.
func ms(d simtime.Duration) float64 { return float64(d) / 1e6 }

// engineKey renders the simulated fields of one migration's metrics.
// TraceID is left out: it is zero untraced and a span ID traced.
func engineKey(m *migration.Metrics) string {
	c := *m
	c.TraceID = 0
	return fmt.Sprintf("%+v", c)
}

// worstSockKB is the largest freeze-phase socket payload of ms, in kB.
func worstSockKB(ms []*migration.Metrics) float64 {
	var worst uint64
	for _, m := range ms {
		worst = max(worst, m.FreezeSockBytes)
	}
	return float64(worst) / 1e3
}

// ---- fig5b-1024 -------------------------------------------------------

// fig5bInputs runs three warm-up alignments per run. FreezeConfig.Seed
// only matters modulo 64 (it shifts the warm-up by 3 ms steps), so the
// run covers seed*3 .. seed*3+2 of those 64 alignments.
func fig5bInputs(seed uint64) []input {
	var ins []input
	for i := uint64(0); i < 3; i++ {
		fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 1024)
		fc.Repeats = 1
		fc.Workers = 1
		fc.Seed = seed*3 + i
		ins = append(ins, input{
			label: fmt.Sprintf("fig5b conns=1024 seed=%d", fc.Seed),
			run: func(tr *tracer) (*outcome, error) {
				c := fc
				if tr != nil {
					c.Prof = tr.prof
					c.Observe = true
				}
				pt, err := eval.RunFreezePoint(c)
				if err != nil {
					return nil, err
				}
				if tr != nil && pt.Snap != nil {
					tr.addSnap(pt.Snap)
				}
				return fig5bOutcome(pt), nil
			},
		})
	}
	return ins
}

func fig5bOutcome(pt *eval.FreezePoint) *outcome {
	o := &outcome{sims: 1, engine: pt.Runs, checkErr: checkFig5b(pt)}
	var keys []string
	for _, m := range pt.Runs {
		o.migrations++
		o.succeeded++
		o.downtimes = append(o.downtimes, ms(m.FreezeTime+m.StallTime))
		keys = append(keys, engineKey(m))
	}
	o.fidelity = map[string]float64{
		"freeze_ms":      ms(pt.WorstFreeze),
		"freeze_sock_kb": float64(pt.WorstSockBytes) / 1e3,
	}
	o.fingerprint = fmt.Sprintf("freeze=%d sock=%d retrans=%d runs=%s",
		pt.WorstFreeze, pt.WorstSockBytes, pt.ClientRetransmits, strings.Join(keys, ";"))
	return o
}

// checkFig5b asserts what eval_test.go and EXPERIMENTS.md pin for the
// 1024-connection point: the migration completed, no client
// retransmitted (capture on), and the worst freeze stays under 40 ms.
func checkFig5b(pt *eval.FreezePoint) error {
	if len(pt.Runs) == 0 {
		return errors.New("fig5b: no completed migration")
	}
	for _, m := range pt.Runs {
		if m.Aborted {
			return fmt.Errorf("fig5b: migration aborted: %s", m.AbortReason)
		}
	}
	if pt.ClientRetransmits != 0 {
		return fmt.Errorf("fig5b: %d client retransmits with capture on", pt.ClientRetransmits)
	}
	if pt.Conns == 1024 && pt.WorstFreeze >= 40*time.Millisecond {
		return fmt.Errorf("fig5b: freeze %v at 1024 conns, want < 40ms", pt.WorstFreeze)
	}
	return nil
}

// ---- fig4-openarena ---------------------------------------------------

// fig4Frames is how many migration phases one run covers: the freeze
// depends on where in the 50 ms frame the migration lands, so the run
// spreads its inputs evenly over one frame and the seed picks the
// offset of that comb.
const fig4Frames = 8

func fig4Inputs(seed uint64) []input {
	period := openarena.DefaultServerConfig().FramePeriod
	step := period / fig4Frames
	offset := simtime.Duration(seed*7919) % step
	var ins []input
	for i := 0; i < fig4Frames; i++ {
		cfg := openarena.DefaultFig4Config()
		cfg.MigrateAt += offset + simtime.Duration(i)*step
		ins = append(ins, input{
			label: fmt.Sprintf("fig4 migrate_at=%v", cfg.MigrateAt),
			run: func(tr *tracer) (*outcome, error) {
				// RunFig4 has no profiling hook; a traced run reports its
				// layers from the engine metrics and the probes.
				r, err := openarena.RunFig4(cfg)
				if err != nil {
					return nil, err
				}
				return fig4Outcome(r), nil
			},
		})
	}
	return ins
}

func fig4Outcome(r *openarena.Fig4Result) *outcome {
	m := r.Metrics
	o := &outcome{sims: 1, migrations: 1, succeeded: 1, engine: []*migration.Metrics{m}, checkErr: checkFig4(r)}
	o.downtimes = []float64{ms(m.FreezeTime + m.StallTime)}
	o.fidelity = map[string]float64{
		"freeze_ms":       ms(m.FreezeTime),
		"client_delay_ms": ms(r.ExtraDelay),
		"freeze_sock_kb":  worstSockKB(o.engine),
	}
	o.fingerprint = fmt.Sprintf("max_gap=%d baseline=%d extra=%d received=%d expected=%d engine=%s",
		r.MaxGap, r.BaselineGap, r.ExtraDelay, r.TotalReceived, r.ExpectedPerClient, engineKey(m))
	return o
}

// checkFig4 asserts the §VI-B downtime: the migration completed without
// rolling back and froze the server for at most 20 ms. The paper's
// ≈25 ms client delay is not asserted (EXPERIMENTS.md documents the
// simulator's ≈33 ms as a deviation).
func checkFig4(r *openarena.Fig4Result) error {
	if r.Metrics.Aborted {
		return fmt.Errorf("fig4: migration aborted: %s", r.Metrics.AbortReason)
	}
	if r.Metrics.FreezeTime > 20*time.Millisecond {
		return fmt.Errorf("fig4: freeze %v, want <= 20ms", r.Metrics.FreezeTime)
	}
	return nil
}

// ---- soak-battery -----------------------------------------------------

// soakBatteries is how many distinct seed pairs one run covers.
const soakBatteries = 4

// soakPool bounds the soak seeds to 1..2*soakPool, the range verified
// violation-free on the unchanged simulator. Soak seeds 124, 156, 211,
// 248, 250, 251, 296, 336, 414 and 1630 fail the audit (see README.md);
// widen the pool once those are fixed.
const soakPool = 60

// soakWorkers is the battery's cell parallelism (the runner clamps it
// to GOMAXPROCS).
const soakWorkers = 2

func soakInputs(seed uint64) []input {
	var ins []input
	for i := uint64(0); i < soakBatteries; i++ {
		k := (seed*soakBatteries + i) % soakPool
		seeds := []uint64{2*k + 1, 2*k + 2}
		ins = append(ins, input{
			label: fmt.Sprintf("soak seeds=%v", seeds),
			run: func(tr *tracer) (*outcome, error) {
				cfg := eval.DefaultSoakConfig()
				cfg.Seeds = seeds
				cfg.Workers = soakWorkers
				var envs *envList
				if tr != nil {
					cfg.Prof = tr.prof
					cfg.Observe = true
					envs = &envList{}
					cfg.Scenarios = envs.wrap(cfg.Scenarios)
				}
				rep, err := eval.RunSoak(cfg)
				if err != nil {
					return nil, err
				}
				o := soakOutcome(rep)
				if tr != nil {
					snap, err := rep.MergedSnapshot()
					if err != nil {
						return nil, fmt.Errorf("soak: merging snapshots: %w", err)
					}
					tr.addSnap(snap)
					o.engine = envs.completed()
				}
				return o, nil
			},
		})
	}
	return ins
}

// envList records every soak cell's environment through the scenario
// Arm hook, so a traced run can read the cells' engine metrics after
// the battery. Cells arm concurrently on the runner's workers.
type envList struct {
	mu   sync.Mutex
	envs []*eval.SoakEnv
}

func (l *envList) wrap(scs []eval.SoakScenario) []eval.SoakScenario {
	out := make([]eval.SoakScenario, len(scs))
	for i, sc := range scs {
		arm := sc.Arm
		out[i] = eval.SoakScenario{Name: sc.Name, Arm: func(e *eval.SoakEnv) {
			l.mu.Lock()
			l.envs = append(l.envs, e)
			l.mu.Unlock()
			arm(e)
		}}
	}
	return out
}

func (l *envList) completed() []*migration.Metrics {
	var ms []*migration.Metrics
	for _, e := range l.envs {
		for _, m := range e.Migrator {
			ms = append(ms, m.Completed...)
		}
	}
	return ms
}

func soakOutcome(rep *eval.SoakReport) *outcome {
	o := &outcome{sims: len(rep.Results), checkErr: checkSoak(rep)}
	var keys []string
	for _, r := range rep.Results {
		o.migrations += len(r.DowntimesUs)
		o.succeeded += r.Succeeded
		o.failed += r.Failed
		o.aborted += r.Aborted
		for _, us := range r.DowntimesUs {
			o.downtimes = append(o.downtimes, us/1e3)
		}
		o.ctl.dispatches += r.Dispatches
		o.ctl.resends += r.Resends
		o.ctl.takeovers += r.Takeovers
		o.ctl.completed += uint64(r.EngineCompleted)
		keys = append(keys, fmt.Sprintf("%s/%d hash=%#x ok=%d fail=%d abort=%d retries=%d disp=%d resend=%d tkovr=%d eng=%d/%d/%d",
			r.Scenario, r.Seed, r.TraceHash, r.Succeeded, r.Failed, r.Aborted, r.Retries,
			r.Dispatches, r.Resends, r.Takeovers, r.EngineStarted, r.EngineCompleted, r.EngineAborted))
	}
	o.fidelity = map[string]float64{}
	o.fingerprint = strings.Join(keys, "\n")
	return o
}

// checkSoak asserts the soak audit contract: no cell reports a
// violation, every cell drained to zero pending events, and every
// request reached a terminal state. Aborts and lossy-cell SLO breaches
// are outcomes, not failures.
func checkSoak(rep *eval.SoakReport) error {
	if len(rep.Results) == 0 {
		return errors.New("soak: no cells")
	}
	for _, r := range rep.Results {
		if len(r.Violations) > 0 {
			return fmt.Errorf("soak %s/%d: %d violations: %s", r.Scenario, r.Seed, len(r.Violations), r.Violations[0])
		}
		if r.PendingAfterDrain != 0 {
			return fmt.Errorf("soak %s/%d: %d events pending after drain", r.Scenario, r.Seed, r.PendingAfterDrain)
		}
		if t := r.Succeeded + r.Failed + r.Aborted; t != r.Requests {
			return fmt.Errorf("soak %s/%d: %d of %d requests terminal", r.Scenario, r.Seed, t, r.Requests)
		}
	}
	return nil
}

// ---- fig5f-dve-lb -----------------------------------------------------

// dveRuns is how many DVE seeds one run covers; dvePool bounds the DVE
// seeds to 0..dvePool-1, all verified to pass checkDVE.
const (
	dveRuns = 4
	dvePool = 128
)

func dveInputs(seed uint64) []input {
	var ins []input
	for i := uint64(0); i < dveRuns; i++ {
		cfg := dve.DefaultConfig()
		cfg.LB = true
		cfg.Seed = (seed*dveRuns + i) % dvePool
		ins = append(ins, input{
			label: fmt.Sprintf("dve lb seed=%d", cfg.Seed),
			run: func(tr *tracer) (*outcome, error) {
				c := cfg
				if tr != nil {
					c.Observe = true
				}
				sim, err := dve.New(c)
				if err != nil {
					return nil, err
				}
				if tr != nil {
					sim.Cluster.Sched.Prof = tr.prof.Loop("dve")
					sk := tr.prof.Skew("dve")
					for _, m := range sim.Migrators {
						m.Prof = sk
					}
				}
				r := sim.Run()
				if tr != nil {
					if cap := sim.CaptureObs("dve"); cap != nil {
						tr.addSnap(cap.Snap)
					}
				}
				return dveOutcome(sim, r), nil
			},
		})
	}
	return ins
}

func dveOutcome(sim *dve.Simulation, r *dve.Results) *outcome {
	o := &outcome{sims: 1, migrations: r.Migrations, succeeded: r.Migrations, decisions: len(r.Events), checkErr: checkDVE(r)}
	for _, m := range sim.Migrators {
		o.engine = append(o.engine, m.Completed...)
		for _, mm := range m.Completed {
			o.downtimes = append(o.downtimes, ms(mm.FreezeTime+mm.StallTime))
		}
	}
	var freezes []float64
	for _, f := range r.FreezeTimes {
		freezes = append(freezes, ms(f))
	}
	o.fidelity = map[string]float64{
		"freeze_ms":       maxOf(freezes),
		"cpu_spread_pct":  r.FinalSpread,
		"update_floor_hz": r.WorstUpdateRate(),
	}
	o.fidelity["freeze_sock_kb"] = worstSockKB(o.engine)
	sort.Float64s(freezes)
	// The spread is compared to 9 significant digits: node CPU
	// utilisation sums process demands in map order, so its last bits
	// differ between identical runs.
	o.fingerprint = fmt.Sprintf("migrations=%d freezes=%v spread=%.9g floor=%v decisions=%d outage=%v procs=%v",
		r.Migrations, freezes, r.FinalSpread, r.WorstUpdateRate(), len(r.Events), r.OutageClientSeconds, lastProcs(r))
	return o
}

// lastProcs is each node's final zone-server count.
func lastProcs(r *dve.Results) map[string]float64 {
	out := map[string]float64{}
	for _, name := range r.Procs.Names() {
		vs := r.Procs.Get(name).Values
		if len(vs) > 0 {
			out[name] = vs[len(vs)-1]
		}
	}
	return out
}

// checkDVE asserts what dve_test.go pins for the balanced run: the
// conductor migrated at least once, the overloaded edge nodes shed
// zone servers, none of the 100 zone servers was lost, and the final
// CPU spread is under 20 %.
func checkDVE(r *dve.Results) error {
	if r.Migrations < 1 {
		return errors.New("dve: LB performed no migrations")
	}
	procs := lastProcs(r)
	if procs["node1"] >= dve.ZonesPerNode || procs["node5"] >= dve.ZonesPerNode {
		return fmt.Errorf("dve: edge nodes kept all servers: node1=%v node5=%v", procs["node1"], procs["node5"])
	}
	total := 0.0
	for _, n := range procs {
		total += n
	}
	if total != dve.GridW*dve.GridH {
		return fmt.Errorf("dve: %v zone servers, want %d", total, dve.GridW*dve.GridH)
	}
	if r.FinalSpread >= 20 {
		return fmt.Errorf("dve: final CPU spread %.2f%%, want < 20%%", r.FinalSpread)
	}
	return nil
}
