package eval

import (
	"bytes"
	"testing"

	"dvemig/internal/obs"
)

// smallStrategySweep keeps the parity matrix cheap: three strategies,
// two fault scenarios (one benign, one adversarial), two seeds.
func smallStrategySweep(workers int, observe bool) ChaosConfig {
	cfg := DefaultChaosConfig()
	all := DefaultChaosScenarios()
	cfg.Scenarios = []ChaosScenario{all[0], all[4]} // healthy, lossy-cluster
	cfg.Seeds = []uint64{1, 2}
	cfg.Workers = workers
	cfg.Observe = observe
	return cfg
}

// TestStrategySweepInvariants: every strategy keeps the byte-stream
// invariant under the sampled scenarios, and the post-copy metric
// columns are populated exactly where they should be.
func TestStrategySweepInvariants(t *testing.T) {
	r, err := RunStrategySweep(smallStrategySweep(0, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 3*2*2 {
		t.Fatalf("%d cells, want 12", len(r.Results))
	}
	for _, res := range r.Results {
		if !res.Survived {
			t.Errorf("%s/%s/seed%d: process did not survive", res.Strategy, res.Scenario, res.Seed)
		}
		if len(res.Violations) > 0 {
			t.Errorf("%s/%s/seed%d: violations: %v", res.Strategy, res.Scenario, res.Seed, res.Violations)
		}
		if !res.Completed {
			t.Errorf("%s/%s/seed%d: migration did not complete", res.Strategy, res.Scenario, res.Seed)
			continue
		}
		m := res.Metrics
		if m.Mig != res.Strategy {
			t.Errorf("%s/%s/seed%d: Metrics.Mig = %q", res.Strategy, res.Scenario, res.Seed, m.Mig)
		}
		switch res.Strategy {
		case "precopy":
			if m.PagesShipped != 0 {
				t.Errorf("precopy shipped %d pull pages", m.PagesShipped)
			}
			if m.LastFillAt != m.ResumeAt {
				t.Errorf("precopy LastFillAt %v != ResumeAt %v", m.LastFillAt, m.ResumeAt)
			}
		case "postcopy", "hybrid":
			if m.PagesShipped == 0 {
				t.Errorf("%s shipped no pull pages", res.Strategy)
			}
			if m.PullDuplicates != 0 {
				t.Errorf("%s served %d duplicate pulls", res.Strategy, m.PullDuplicates)
			}
			if m.LastFillAt < m.ResumeAt {
				t.Errorf("%s LastFillAt %v before ResumeAt %v", res.Strategy, m.LastFillAt, m.ResumeAt)
			}
		}
		if m.DegradedWindow <= 0 {
			t.Errorf("%s/%s/seed%d: DegradedWindow = %v", res.Strategy, res.Scenario, res.Seed, m.DegradedWindow)
		}
		if res.PendingAfterDrain != 0 {
			t.Errorf("%s/%s/seed%d: %d leaked timers", res.Strategy, res.Scenario, res.Seed, res.PendingAfterDrain)
		}
	}
}

// TestStrategySweepParallelMatchesSerial is the determinism contract
// extended to the strategy race: the full report — per-cell trace
// hashes, rendered tables, and the observed trace/metrics artifacts —
// must be byte-identical whether the sweep ran on 1, 4 or 8 workers.
// CI runs this under -race, which also proves the cells share no
// mutable state.
func TestStrategySweepParallelMatchesSerial(t *testing.T) {
	render := func(workers int) (table, summary string, hashes []uint64, trace, metrics []byte) {
		r, err := RunStrategySweep(smallStrategySweep(workers, true))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, res := range r.Results {
			hashes = append(hashes, res.TraceHash)
		}
		var tb, mb bytes.Buffer
		caps := r.Captures()
		if len(caps) != len(r.Results) {
			t.Fatalf("workers=%d: %d captures for %d cells", workers, len(caps), len(r.Results))
		}
		if err := obs.WriteChromeTrace(&tb, caps...); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteMetricsText(&mb, caps...); err != nil {
			t.Fatal(err)
		}
		return r.StrategyTable(), r.StrategySummary(), hashes, tb.Bytes(), mb.Bytes()
	}
	refTable, refSummary, refHashes, refTrace, refMetrics := render(1)
	if len(refTrace) == 0 || len(refMetrics) == 0 {
		t.Fatal("serial artifacts empty")
	}
	for _, w := range []int{4, 8} {
		gotTable, gotSummary, gotHashes, gotTrace, gotMetrics := render(w)
		if gotTable != refTable {
			t.Errorf("table differs at workers=%d:\n--- serial ---\n%s--- workers=%d ---\n%s",
				w, refTable, w, gotTable)
		}
		if gotSummary != refSummary {
			t.Errorf("summary differs at workers=%d", w)
		}
		for i := range refHashes {
			if gotHashes[i] != refHashes[i] {
				t.Errorf("trace hash %d differs at workers=%d: %#x vs %#x",
					i, w, refHashes[i], gotHashes[i])
			}
		}
		if !bytes.Equal(refTrace, gotTrace) {
			t.Errorf("trace artifact differs at workers=%d (%d vs %d bytes)", w, len(refTrace), len(gotTrace))
		}
		if !bytes.Equal(refMetrics, gotMetrics) {
			t.Errorf("metrics artifact differs at workers=%d (%d vs %d bytes)", w, len(refMetrics), len(gotMetrics))
		}
	}
}
