package main

import (
	"fmt"
	"time"

	"dvemig/internal/eval"
	"dvemig/internal/migration"
)

// selfTest feeds the checkers results with a known defect and fails
// when one is accepted; each case also has an intact control that must
// pass, so a checker that rejects everything fails too.
func selfTest() []error {
	var errs []error
	expect := func(what string, reject bool, err error) {
		if reject && err == nil {
			errs = append(errs, fmt.Errorf("self-test: %s accepted", what))
		}
		if !reject && err != nil {
			errs = append(errs, fmt.Errorf("self-test: %s rejected: %v", what, err))
		}
	}

	point := func(freeze time.Duration) *eval.FreezePoint {
		m := &migration.Metrics{FreezeTime: freeze, TCPMigrated: 1025}
		return &eval.FreezePoint{Conns: 1024, WorstFreeze: freeze, Runs: []*migration.Metrics{m}}
	}
	expect("fig5b freeze 41ms at 1024 conns", true, checkFig5b(point(41*time.Millisecond)))
	expect("fig5b freeze 38ms at 1024 conns", false, checkFig5b(point(38*time.Millisecond)))

	cell := func(violations []string, hash uint64) *eval.SoakReport {
		return &eval.SoakReport{Results: []*eval.SoakResult{{
			Scenario: "healthy", Seed: 1, Requests: 2, Succeeded: 2,
			Violations: violations, TraceHash: hash,
		}}}
	}
	expect("soak cell with one violation", true, checkSoak(cell([]string{"duplicate commit"}, 1)))
	expect("soak cell without violations", false, checkSoak(cell(nil, 1)))

	same := func(a, b *outcome) error {
		if a.fingerprint != b.fingerprint {
			return fmt.Errorf("outputs differ")
		}
		return nil
	}
	base := soakOutcome(cell(nil, 0xfeed))
	expect("soak rerun with a changed TraceHash", true, same(base, soakOutcome(cell(nil, 0xbeef))))
	expect("soak rerun with the same TraceHash", false, same(base, soakOutcome(cell(nil, 0xfeed))))

	// An event whose bucket no layer claims must be counted, not lost.
	tr := newTracer()
	lp := tr.prof.Loop("self-test")
	lp.End(lp.Begin(), "mystery.event", 0)
	lp.End(lp.Begin(), "netsim.deliver", 0)
	acc := newLayerAcc()
	acc.add(tr, &outcome{sims: 1})
	if acc.unmapped["mystery"] != 1 || acc.metrics(1)["trace.unmapped_events"] != 1 || acc.layerEvs["netsim"] != 1 {
		errs = append(errs, fmt.Errorf("self-test: unmapped bucket not reported (%v)", acc.unmapped))
	}
	return errs
}
