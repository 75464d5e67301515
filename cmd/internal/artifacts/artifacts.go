// Package artifacts is the artifact and profiling flag block the
// simulator binaries share: it declares -trace-out, -metrics-out,
// -series-out (where a binary samples series), -cpuprofile, -memprofile
// and -simprof-out, opens and closes the self-profiling session those
// flags drive, and writes a run's observability captures to the
// requested files.
package artifacts

import (
	"flag"
	"fmt"
	"os"

	"dvemig/internal/obs"
	"dvemig/internal/simprof"
)

// Flags holds one binary's parsed artifact and profiling flags.
type Flags struct {
	prog                               string
	traceOut, metricsOut, seriesOut    string
	cpuProfile, memProfile, simprofOut string
	sess                               *simprof.Session
}

// Register declares the block on the default flag set for the binary
// prog. subject names what the capture artifacts cover, for the help
// text; series also declares -series-out.
func Register(prog, subject string, series bool) *Flags {
	f := &Flags{prog: prog}
	flag.StringVar(&f.traceOut, "trace-out", "", "write a Chrome trace_event JSON (Perfetto-loadable) of "+subject+" to this file")
	flag.StringVar(&f.metricsOut, "metrics-out", "", "write the metric snapshot (counters/gauges/histograms) of "+subject+" to this file")
	if series {
		flag.StringVar(&f.seriesOut, "series-out", "", "write the sampled time series and SLO verdicts of "+subject+" to this file (.csv for CSV, else JSON)")
	}
	flag.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile (post-GC) to this file at exit")
	flag.StringVar(&f.simprofOut, "simprof-out", "", "self-profile the simulator's hot paths and write the simprof JSON report to this file")
	return f
}

// Observe reports whether any capture artifact was requested, i.e.
// whether the run must attach its observability plane.
func (f *Flags) Observe() bool {
	return f.traceOut != "" || f.metricsOut != "" || f.seriesOut != ""
}

// Open starts the profiling session once the flags are parsed and
// returns its self-profiler (nil without -simprof-out). It exits 2 when
// a profile cannot be started.
func (f *Flags) Open() *simprof.Profiler {
	sess, err := simprof.OpenSession(f.cpuProfile, f.memProfile, f.simprofOut, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
		os.Exit(2)
	}
	f.sess = sess
	return sess.Prof
}

// Write writes the requested trace, metrics and series artifacts of
// caps, in the canonical order the caller passes them. It exits 1 on a
// write error.
func (f *Flags) Write(caps ...*obs.Capture) {
	for _, a := range []struct {
		path, what string
		write      func(string, ...*obs.Capture) error
	}{
		{f.traceOut, "trace", obs.WriteChromeTraceFile},
		{f.metricsOut, "metrics", obs.WriteMetricsFile},
		{f.seriesOut, "series", obs.WriteSeriesFile},
	} {
		if a.path == "" {
			continue
		}
		if err := a.write(a.path, caps...); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing %s: %v\n", f.prog, a.what, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", a.path)
	}
}

// Close ends the profiling session, writing the heap profile and the
// simprof report. It exits 1 on a write error.
func (f *Flags) Close() {
	if err := f.sess.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: writing profiles: %v\n", f.prog, err)
		os.Exit(1)
	}
}
