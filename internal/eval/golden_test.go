package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dvemig/internal/obs"
	"dvemig/internal/sockmig"
)

// Cross-commit goldens. The determinism tests compare two runs of the
// same build; these constants pin the harness outputs themselves, so a
// refactor of the batteries, the runner or the per-cell wiring that
// shifts a single packet, outcome or metric label shows up here. They
// were recorded once and must not be re-recorded to make a change pass:
// a mismatch means simulated behaviour moved.
const (
	goldenChaosHealthyHash      = 0x81e6c14ae52a4d37
	goldenChaosPartitionHash    = 0x966528358154b9af
	goldenFailoverSteadyHash    = 0x11c3621c9fffea78
	goldenSoakHealthyHash       = 0x79ab537a71a93e28
	goldenSoakCtlCrashHash      = 0x38d4996c60993879
	goldenFig5bWorstFreeze      = 2928672
	goldenFig5bWorstSockBytes   = 14550
	goldenChaosHealthyMetricSHA = "78ed2d3482f54ce3d00852c3322484e083b51968cd94ed46f9603801aa31db60"
)

// goldenSoakCounts are (requests, succeeded, failed, aborted, retries).
var goldenSoakCounts = map[string][5]int{
	"healthy":   {60, 60, 0, 0, 57},
	"ctl-crash": {60, 60, 0, 0, 57},
}

func chaosScenarioNamed(t *testing.T, name string) ChaosScenario {
	t.Helper()
	for _, sc := range DefaultChaosScenarios() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("chaos scenario %q missing", name)
	return ChaosScenario{}
}

// TestHarnessGoldens pins the chaos, failover, soak and Fig 5b harness
// outputs, and the observed chaos capture's metric text, to constants.
func TestHarnessGoldens(t *testing.T) {
	t.Run("chaos", func(t *testing.T) {
		cfg := DefaultChaosConfig()
		cfg.Observe = true
		for _, c := range []struct {
			name               string
			hash               uint64
			completed, aborted bool
		}{
			{"healthy", goldenChaosHealthyHash, true, false},
			{"partition-freeze", goldenChaosPartitionHash, true, false},
		} {
			res, err := RunChaosScenario(cfg, chaosScenarioNamed(t, c.name), 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.TraceHash != c.hash || res.Completed != c.completed || res.Aborted != c.aborted {
				t.Errorf("%s/seed1: hash=%#x completed=%v aborted=%v, want hash=%#x completed=%v aborted=%v",
					c.name, res.TraceHash, res.Completed, res.Aborted, c.hash, c.completed, c.aborted)
			}
			if c.name != "healthy" {
				continue
			}
			var b bytes.Buffer
			if err := obs.WriteMetricsText(&b, res.Obs); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b.Bytes())
			if got := hex.EncodeToString(sum[:]); got != goldenChaosHealthyMetricSHA {
				t.Errorf("healthy/seed1 metrics text sha256 = %s, want %s", got, goldenChaosHealthyMetricSHA)
			}
		}
	})
	t.Run("failover", func(t *testing.T) {
		res, err := RunFailoverScenario(DefaultFailoverScenarios()[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scenario != "steady-crash" || res.TraceHash != goldenFailoverSteadyHash {
			t.Errorf("%s/seed1: hash=%#x, want steady-crash hash=%#x", res.Scenario, res.TraceHash, goldenFailoverSteadyHash)
		}
	})
	t.Run("soak", func(t *testing.T) {
		cfg := DefaultSoakConfig()
		cfg.Seeds = []uint64{1}
		cfg.Requests = 60
		cfg.Scenarios = nil
		for _, sc := range DefaultSoakScenarios() {
			if sc.Name == "healthy" || sc.Name == "ctl-crash" {
				cfg.Scenarios = append(cfg.Scenarios, sc)
			}
		}
		rep, err := RunSoak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != len(goldenSoakCounts) {
			t.Fatalf("got %d soak cells, want %d", len(rep.Results), len(goldenSoakCounts))
		}
		hashes := map[string]uint64{"healthy": goldenSoakHealthyHash, "ctl-crash": goldenSoakCtlCrashHash}
		for _, res := range rep.Results {
			got := [5]int{res.Requests, res.Succeeded, res.Failed, res.Aborted, res.Retries}
			if res.TraceHash != hashes[res.Scenario] || got != goldenSoakCounts[res.Scenario] {
				t.Errorf("%s/seed1: hash=%#x counts=%v, want hash=%#x counts=%v",
					res.Scenario, res.TraceHash, got, hashes[res.Scenario], goldenSoakCounts[res.Scenario])
			}
		}
	})
	t.Run("fig5b", func(t *testing.T) {
		fc := DefaultFreezeConfig(sockmig.IncrementalCollective, 64)
		fc.Repeats = 2
		pt, err := RunFreezePoint(fc)
		if err != nil {
			t.Fatal(err)
		}
		if pt.WorstFreeze != goldenFig5bWorstFreeze || pt.WorstSockBytes != goldenFig5bWorstSockBytes {
			t.Errorf("incremental/64: freeze=%d sockbytes=%d, want freeze=%d sockbytes=%d",
				pt.WorstFreeze, pt.WorstSockBytes, goldenFig5bWorstFreeze, goldenFig5bWorstSockBytes)
		}
	})
}
