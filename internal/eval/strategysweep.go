package eval

import (
	"fmt"
	"strings"

	"dvemig/internal/migration"
	"dvemig/internal/obs"
)

// The strategy race: every migration strategy runs the same chaos
// scenario battery at the same seeds, so the per-strategy freeze,
// downtime and degraded-window columns are directly comparable cell by
// cell. Its report is a ChaosReport whose results are strategy-major,
// scenario-minor, seed-ordered.

// StrategyTable renders every cell with the three per-strategy latency
// columns: freeze time (process stopped on both nodes), total downtime
// (freeze plus post-resume demand-fault stalls), and the degraded
// window (from migration start until the last page fill — the span in
// which the process runs below full speed). For pre-copy the stall
// share is zero and the degraded window ends at resume, so the columns
// degenerate to the classic freeze-centric view.
func (r *ChaosReport) StrategyTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy race: per-cell freeze / downtime / degraded window under chaos\n")
	fmt.Fprintf(&b, "%-9s %-18s %5s %8s %7s %10s %10s %10s %6s %18s\n",
		"strategy", "scenario", "seed", "outcome", "viol", "freeze-ms", "down-ms", "degr-ms", "pulls", "trace-hash")
	for _, res := range r.Results {
		outcome := "none"
		switch {
		case res.Completed:
			outcome = "migrated"
		case res.Aborted:
			outcome = "aborted"
		}
		freeze, down, degr, pulls := "-", "-", "-", "-"
		if m := res.Metrics; m != nil && res.Completed {
			freeze = fmt.Sprintf("%.2f", float64(m.FreezeTime)/1e6)
			down = fmt.Sprintf("%.2f", float64(m.FreezeTime+m.StallTime)/1e6)
			degr = fmt.Sprintf("%.2f", float64(m.DegradedWindow)/1e6)
			pulls = fmt.Sprintf("%d", m.PagesDemand+m.PagesPrefetched)
		}
		fmt.Fprintf(&b, "%-9s %-18s %5d %8s %7d %10s %10s %10s %6s %#18x\n",
			res.Strategy, res.Scenario, res.Seed, outcome, len(res.Violations),
			freeze, down, degr, pulls, res.TraceHash)
	}
	s, c, a, v := r.Counts()
	fmt.Fprintf(&b, "total: %d cells, %d survived, %d migrated, %d aborted, %d with violations\n",
		len(r.Results), s, c, a, v)
	return b.String()
}

// StrategySummary renders the head-to-head comparison: per (scenario, strategy)
// means over the seeds that completed. This is the table EXPERIMENTS.md
// quotes.
func (r *ChaosReport) StrategySummary() string {
	type key struct{ scenario, strategy string }
	type agg struct {
		n                   int
		freeze, down, degr  float64
		bytes               uint64
		completed, survived int
		snaps               []*obs.Snapshot
	}
	aggs := make(map[key]*agg)
	var scenarios, strategies []string
	seenSc := map[string]bool{}
	seenSt := map[string]bool{}
	for _, res := range r.Results {
		if !seenSt[res.Strategy] {
			seenSt[res.Strategy] = true
			strategies = append(strategies, res.Strategy)
		}
		if !seenSc[res.Scenario] {
			seenSc[res.Scenario] = true
			scenarios = append(scenarios, res.Scenario)
		}
		k := key{res.Scenario, res.Strategy}
		a := aggs[k]
		if a == nil {
			a = &agg{}
			aggs[k] = a
		}
		if res.Survived {
			a.survived++
		}
		if res.Obs != nil && res.Obs.Snap != nil {
			a.snaps = append(a.snaps, res.Obs.Snap)
		}
		if m := res.Metrics; m != nil && res.Completed {
			a.completed++
			a.n++
			a.freeze += float64(m.FreezeTime) / 1e6
			a.down += float64(m.FreezeTime+m.StallTime) / 1e6
			a.degr += float64(m.DegradedWindow) / 1e6
			a.bytes += m.MemPageBytes
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "strategy race summary: mean over completed seeds, per scenario\n")
	fmt.Fprintf(&b, "%-18s %-9s %9s %10s %10s %10s %10s %12s\n",
		"scenario", "strategy", "completed", "freeze-ms", "down-ms", "p99dn-ms", "degr-ms", "page-bytes")
	for _, sc := range scenarios {
		for _, st := range strategies {
			a := aggs[key{sc, st}]
			if a == nil {
				continue
			}
			// p99 downtime across the cell group's histograms, bucket-merged
			// so the percentile covers every seed, not a mean of per-seed
			// estimates.
			p99 := "-"
			if merged, err := obs.MergeSnapshots(a.snaps...); err == nil && merged != nil {
				if h, ok := merged.Hist("mig/downtime_us"); ok && h.N > 0 {
					v, _ := merged.HistogramPercentile("mig/downtime_us", 99)
					p99 = fmt.Sprintf("%.2f", v/1e3)
				}
			}
			if a.n == 0 {
				fmt.Fprintf(&b, "%-18s %-9s %9d %10s %10s %10s %10s %12s\n",
					sc, st, a.completed, "-", "-", p99, "-", "-")
				continue
			}
			n := float64(a.n)
			fmt.Fprintf(&b, "%-18s %-9s %9d %10.2f %10.2f %10s %10.2f %12d\n",
				sc, st, a.completed, a.freeze/n, a.down/n, p99, a.degr/n, a.bytes/uint64(a.n))
		}
	}
	return b.String()
}

// raceEntry is one (strategy, chaos scenario) row of the race grid.
type raceEntry struct {
	strategy string
	sc       ChaosScenario
}

func (e raceEntry) name() string { return e.strategy + " chaos " + e.sc.Name }

// RunStrategySweep races every migration strategy (all of
// migration.StrategyNames) through every chaos scenario at every seed.
// Each cell owns a private scheduler and cluster; cells fan out over
// cfg.Workers goroutines and merge in canonical order, so the report —
// trace hashes included — is bit-identical at any worker count.
func RunStrategySweep(cfg ChaosConfig) (*ChaosReport, error) {
	var entries []raceEntry
	for _, st := range migration.StrategyNames() {
		for _, sc := range cfg.Scenarios {
			entries = append(entries, raceEntry{strategy: st, sc: sc})
		}
	}
	results, err := runGrid("strategy", entries, cfg.Seeds,
		cfg.Workers, cfg.Prof.Sweep("strategy-sweep", cfg.Workers),
		func(e raceEntry, seed uint64) (*ChaosResult, error) {
			mig, err := migration.StrategyByName(e.strategy)
			if err != nil {
				return nil, err
			}
			chaos := cfg // value copy; the cell owns its config
			chaos.MigCfg.Mig = mig
			return RunChaosScenario(chaos, e.sc, seed)
		})
	if err != nil {
		return nil, err
	}
	return &ChaosReport{Results: results}, nil
}
