// Command dvesim runs the §VI-C distributed-virtual-environment
// simulation: 10×10 zones on five server nodes, 10,000 clients drifting
// toward the corners over ~15 minutes, with or without the load-balancing
// middleware. It prints the per-node CPU series (Fig 5e / Fig 5f), the
// zone-server distribution series (Fig 5d) and a summary.
//
// Usage:
//
//	dvesim [-lb] [-duration 900] [-fast]
//	       [-trace-out t.json] [-metrics-out m.metrics] [-series-out s.json]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-simprof-out simprof.json]
//
// The control-plane soak battery is cmd/soak.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dvemig/cmd/internal/artifacts"
	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/simtime"
)

func main() {
	lbOn := flag.Bool("lb", false, "enable the load balancing middleware (Fig 5f) instead of plain (Fig 5e)")
	both := flag.Bool("both", false, "run the LB-off and LB-on simulations concurrently and print both (Fig 5e and 5f)")
	duration := flag.Int("duration", 900, "simulated seconds")
	fast := flag.Bool("fast", false, "accelerated movement for quick demos")
	series := flag.Bool("series", true, "print the full time series tables")
	neighbors := flag.Bool("neighbors", false, "connect zone servers to their grid neighbors (both-ends migration)")
	showMap := flag.Bool("fig5a", false, "print the Fig 5a zone map and exit")
	csvDir := flag.String("csv", "", "write cpu.csv / procs.csv / rate.csv time series into this directory")
	sample := flag.Duration("sample", time.Second, "sim-time sampling cadence for the observability time series (0 disables)")
	strategy := flag.String("strategy", "precopy", "memory-movement strategy for every LB migration: precopy|postcopy|hybrid")
	out := artifacts.Register("dvesim", "the run", true)
	flag.Parse()

	if *showMap {
		fmt.Println(dve.Fig5a())
		return
	}

	prof := out.Open()
	observe := out.Observe()
	cfg := dve.DefaultConfig()
	mig, err := migration.StrategyByName(*strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvesim: %v\n", err)
		os.Exit(2)
	}
	cfg.MigConfig.Mig = mig
	cfg.LB = *lbOn
	cfg.Observe = observe
	cfg.NeighborLinks = *neighbors
	cfg.Duration = simtime.Duration(*duration) * 1e9
	if *fast {
		cfg.MoveStart = 30 * 1e9
		cfg.MoveProb = 0.08
		cfg.LBConfig.ImbalanceThreshold = 0.08
		cfg.LBConfig.CalmDown = 8e9
	}
	// The runs are independent simulations with private schedulers; with
	// -both the parallel runner overlaps the LB-off and LB-on runs and
	// returns them in canonical (off, on) order.
	lbs := []bool{cfg.LB}
	if *both {
		lbs = []bool{false, true}
		fmt.Fprintf(os.Stderr, "running %ds of simulated time twice (lb off and on, concurrently)...\n", *duration)
	} else {
		fmt.Fprintf(os.Stderr, "running %ds of simulated time (%d zones, %d clients, lb=%v)...\n",
			*duration, dve.GridW*dve.GridH, cfg.Clients, cfg.LB)
	}
	type run struct {
		res *dve.Results
		cap *obs.Capture
	}
	runs, err := eval.RunParallel(lbs, 0, nil, func(lb bool) (run, error) {
		c := cfg
		c.LB = lb
		sim, err := dve.New(c)
		if err != nil {
			return run{}, err
		}
		label := fmt.Sprintf("dve/lb=%v", lb)
		sim.Cluster.Sched.Prof = prof.Loop(label)
		attachSampler(sim, *sample)
		r := run{res: sim.Run()}
		if observe {
			r.cap = sim.CaptureObs(label)
		}
		return r, nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvesim: %v\n", err)
		os.Exit(1)
	}
	caps := make([]*obs.Capture, len(runs))
	for i, r := range runs {
		caps[i] = r.cap
	}
	out.Write(caps...)
	if *both {
		off, on := runs[0].res, runs[1].res
		if *series {
			fmt.Printf("=== Fig 5e (CPU per node, no LB) ===\n%s\n", off.CPU.Table())
			fmt.Printf("=== Fig 5f (CPU per node, LB enabled) ===\n%s\n", on.CPU.Table())
			fmt.Printf("=== Fig 5d (zone servers per node) ===\n%s\n", on.Procs.Table())
		}
		fmt.Println(eval.DVESummary(off, false))
		fmt.Println(eval.DVESummary(on, true))
		out.Close()
		return
	}

	r := runs[0].res
	if *series {
		fig := "Fig 5e (CPU per node, no LB)"
		if cfg.LB {
			fig = "Fig 5f (CPU per node, LB enabled)"
		}
		fmt.Printf("=== %s ===\n%s\n", fig, r.CPU.Table())
		if cfg.LB {
			fmt.Printf("=== Fig 5d (zone servers per node) ===\n%s\n", r.Procs.Table())
		}
	}
	if *csvDir != "" {
		for name, set := range map[string]interface{ CSV() string }{
			"cpu.csv": r.CPU, "procs.csv": r.Procs, "rate.csv": r.UpdateRate,
		} {
			path := filepath.Join(*csvDir, name)
			if err := os.WriteFile(path, []byte(set.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dvesim: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	fmt.Println(eval.DVESummary(r, cfg.LB))
	out.Close()
}

// attachSampler arms a sim-time sampler on an observed run: every
// period the cluster totals are harvested (idempotently) into the
// registry and appended to ring series, which CaptureObs then folds
// into the exported artifacts. No-op when unobserved or period ≤ 0.
func attachSampler(sim *dve.Simulation, period time.Duration) {
	if sim.Obs == nil || period <= 0 {
		return
	}
	s := obs.NewSampler(sim.Cluster.Sched, sim.Obs.Metrics, period, 0)
	s.Harvest = func(r *obs.Registry) { obs.HarvestCluster(r, sim.Cluster) }
	sim.Obs.Sampler = s
	s.Start()
}
