// Command perfbench is the repository's benchmark. It runs one workload
// closed-loop for a fixed time, checks every simulation's outputs and
// their determinism, and prints its metrics; the last line of standard
// output is the JSON result.
//
//	perfbench --workload fig5b-1024 --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs
// untraced and traced simulations in pairs plus the layer probes and
// reports the per-layer metrics. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRounds is how often a run sets up: each round generates the
// inputs and runs the first one untimed (the warm-up). The rounds'
// outputs must be identical, and setup_s is their median.
const setupRounds = 3

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:]))
}

func run(start time.Time, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 0, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := workloadByName(*name)
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	fmt.Printf("host: cpus=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("workload %s seed %d: %s\n", wl.name, *seed, wl.why)

	r := &runner{seen: map[string]*outcome{}}
	for _, err := range selfTest() {
		r.fail(err)
	}
	budget := time.Duration(*seconds * 1e9)
	var metrics map[string]float64
	var spec []metricSpec
	if *trace == 0 {
		metrics, spec = r.measure(wl, *seed, budget, start), endToEnd
	} else {
		metrics, spec = r.traced(wl, *seed, budget), perLayer
	}
	fid := r.fidelity(wl, *seed)
	for _, k := range fidelityNames {
		fmt.Printf("fidelity %s = %.6g\n", k, fid[k])
		if *trace == 1 {
			metrics[k] = fid[k]
		}
	}
	return r.report(metrics, spec)
}

// runner executes simulations and keeps the run's accounting.
type runner struct {
	attempted, failed int
	// seen holds the first outcome of every input label: later runs of
	// the same input must reproduce its fingerprint.
	seen map[string]*outcome
}

func (r *runner) fail(err error) {
	r.failed++
	r.attempted++
	fmt.Printf("FAIL %v\n", err)
}

// exec runs one input, checks it and compares it with the input's
// first run. It returns nil when the simulation failed.
func (r *runner) exec(in input, tr *tracer) *outcome {
	r.attempted++
	o, err := in.run(tr)
	switch {
	case err != nil:
		err = fmt.Errorf("%s: %w", in.label, err)
	case o.checkErr != nil:
		err = fmt.Errorf("%s: %w", in.label, o.checkErr)
	default:
		if prev := r.seen[in.label]; prev == nil {
			r.seen[in.label] = o
		} else if prev.fingerprint != o.fingerprint {
			err = fmt.Errorf("%s: rerun of the same input changed its simulated outputs", in.label)
		}
	}
	if err != nil {
		r.failed++
		fmt.Printf("FAIL %v\n", err)
		return nil
	}
	return o
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// measure is the untraced run: setupRounds set-ups, then the timed
// closed loop over the inputs for at least budget and at least one pass.
func (r *runner) measure(wl *workload, seed uint64, budget time.Duration, start time.Time) map[string]float64 {
	var setup []float64
	var ins []input
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		if round == 0 {
			t0 = start
		}
		ins = wl.inputs(seed)
		r.exec(ins[0], nil)
		setup = append(setup, time.Since(t0).Seconds())
	}
	var simWall, migRate, alloc, rssPeaks []float64
	t0 := time.Now()
	for i := 0; ; i++ {
		m0 := readMem()
		rss := watchRSS()
		s := time.Now()
		o := r.exec(ins[i%len(ins)], nil)
		wall := time.Since(s).Seconds()
		peak := rss.end()
		m1 := readMem()
		if o != nil {
			rssPeaks = append(rssPeaks, peak)
			simWall = append(simWall, wall/float64(o.sims))
			migRate = append(migRate, float64(o.migrations)/wall)
			alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(o.sims)/1e6)
		}
		if i+1 >= len(ins) && time.Since(t0) >= budget {
			break
		}
	}
	fmt.Printf("timed: %d input runs in %.2fs; per-simulation wall %s s; peak RSS %s MB; set-up rounds %s s\n",
		len(simWall), time.Since(t0).Seconds(), fmtList(simWall), fmtList(rssPeaks), fmtList(setup))
	var succ, term int
	for _, o := range r.firstPass(wl, seed) {
		succ += o.succeeded
		term += o.succeeded + o.failed + o.aborted
	}
	return map[string]float64{
		"sims_per_s":       ratio(1, median(simWall)),
		"migrations_per_s": median(migRate),
		"alloc_mb_per_sim": median(alloc),
		"peak_rss_mb":      median(rssPeaks),
		"setup_s":          median(setup),
		"success_frac":     ratio(float64(succ), float64(term)),
	}
}

// traced is the per-layer run: one untraced warm-up, then untraced and
// traced runs of each input in pairs for at least budget and one pass,
// then the layer probes.
func (r *runner) traced(wl *workload, seed uint64, budget time.Duration) map[string]float64 {
	ins := wl.inputs(seed)
	r.exec(ins[0], nil)
	acc := newLayerAcc()
	var plain, withTrace []float64
	var sims int
	var gcCycles, gcPauseNs, allocBytes float64
	t0 := time.Now()
	for i := 0; ; i++ {
		in := ins[i%len(ins)]
		m0 := readMem()
		s := time.Now()
		o := r.exec(in, nil)
		wall := time.Since(s).Seconds()
		m1 := readMem()
		if o != nil {
			plain = append(plain, wall)
			sims += o.sims
			gcCycles += float64(m1.NumGC - m0.NumGC)
			gcPauseNs += float64(m1.PauseTotalNs - m0.PauseTotalNs)
			allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		}
		tr := newTracer()
		s = time.Now()
		if o := r.exec(in, tr); o != nil {
			withTrace = append(withTrace, time.Since(s).Seconds())
			acc.add(tr, o)
		}
		if i+1 >= len(ins) && time.Since(t0) >= budget {
			break
		}
	}
	fmt.Printf("traced: %d untraced / %d traced input runs in %.2fs\n", len(plain), len(withTrace), time.Since(t0).Seconds())
	fmt.Print(acc.shareTable())
	m := acc.metrics(median(plain))
	m["runtime.gc_cycles"] = ratio(gcCycles, float64(sims))
	m["runtime.gc_pause_ms"] = ratio(gcPauseNs/1e6, float64(sims))
	m["runtime.alloc_mb"] = ratio(allocBytes/1e6, float64(sims))
	m["trace.overhead_frac"] = ratio(median(withTrace), median(plain)) - 1
	r.attempted++
	probes, err := runProbes(seed)
	if err != nil {
		r.failed++
		fmt.Printf("FAIL %v\n", err)
	}
	for k, v := range probes {
		m[k] = v
	}
	return m
}

// firstPass returns the first outcome of each of the run's inputs, in
// input order (inputs that failed are missing).
func (r *runner) firstPass(wl *workload, seed uint64) []*outcome {
	var outs []*outcome
	for _, in := range wl.inputs(seed) {
		if o := r.seen[in.label]; o != nil {
			outs = append(outs, o)
		}
	}
	return outs
}

// fidelity aggregates the simulated paper figures over the run's
// inputs: worst freeze and freeze socket bytes (the paper's worst case
// over traffic phases), pooled downtime percentiles and abort share,
// median client delay and CPU spread, and the lowest update rate.
func (r *runner) fidelity(wl *workload, seed uint64) map[string]float64 {
	f := map[string]float64{}
	for _, k := range fidelityNames {
		f[k] = 0
	}
	var downs, spreads, delays []float64
	var aborted, terminal int
	floor := math.Inf(1)
	for _, o := range r.firstPass(wl, seed) {
		downs = append(downs, o.downtimes...)
		aborted += o.aborted
		terminal += o.succeeded + o.failed + o.aborted
		for k, v := range o.fidelity {
			switch k {
			case "cpu_spread_pct":
				spreads = append(spreads, v)
			case "update_floor_hz":
				floor = math.Min(floor, v)
			case "client_delay_ms":
				delays = append(delays, v)
			default:
				f[k] = math.Max(f[k], v)
			}
		}
	}
	f["downtime_p50_ms"] = percentile(downs, 50)
	f["downtime_p99_ms"] = percentile(downs, 99)
	f["abort_rate"] = ratio(float64(aborted), float64(terminal))
	f["cpu_spread_pct"] = median(spreads)
	f["client_delay_ms"] = median(delays)
	if !math.IsInf(floor, 1) {
		f["update_floor_hz"] = floor
	}
	fmt.Printf("fidelity over %d inputs, %d migrations\n", len(r.firstPass(wl, seed)), len(downs))
	return f
}

// statm is /proc/self/statm, read in place every rssPeriod; nil where
// /proc is unavailable.
var statm, _ = os.Open("/proc/self/statm")

// rssMB is the process's resident set in MB (statm's second field, in
// pages), falling back to the Go runtime's total reservation where
// /proc is unavailable. It allocates nothing on the /proc path.
func rssMB(buf []byte) float64 {
	if statm != nil {
		if n, err := statm.ReadAt(buf, 0); n > 0 && (err == nil || err == io.EOF) {
			field, pages := 0, 0
			for _, c := range buf[:n] {
				switch {
				case c == ' ':
					field++
				case field == 1 && c >= '0' && c <= '9':
					pages = pages*10 + int(c-'0')
				}
				if field > 1 {
					return float64(pages*os.Getpagesize()) / 1e6
				}
			}
		}
	}
	return float64(readMem().Sys) / 1e6
}

// rssPeak samples the resident set every rssPeriod while one
// simulation runs; stop returns the largest sample.
type rssPeak struct {
	stop chan struct{}
	peak chan float64
}

const rssPeriod = 10 * time.Millisecond

func watchRSS() *rssPeak {
	w := &rssPeak{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		buf := make([]byte, 256)
		peak := rssMB(buf)
		for {
			select {
			case <-w.stop:
				w.peak <- math.Max(peak, rssMB(buf))
				return
			case <-t.C:
				peak = math.Max(peak, rssMB(buf))
			}
		}
	}()
	return w
}

func (w *rssPeak) end() float64 {
	close(w.stop)
	return <-w.peak
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric of spec by name and unit, then the JSON
// result line. A metric the run could not produce fails the run.
func (r *runner) report(values map[string]float64, spec []metricSpec) int {
	res := result{Metrics: map[string]metricValue{}}
	for _, s := range spec {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.attempted++
			r.failed++
			fmt.Printf("FAIL metric %s missing or not finite (%v)\n", s.name, v)
			v = 0
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Printf("metric %-36s %14.6g %s\n", s.name, v, s.unit)
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
