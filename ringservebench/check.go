package main

import (
	"bytes"
	"fmt"

	"ringsched/internal/online"
	"ringsched/internal/serve"
	"ringsched/internal/sim"
)

// The checkers below are pure functions of an answer and what it is
// checked against, so check_test.go can feed them corrupted answers.
// Each returns nil when the answer passes.

// checkBounds requires makespan >= lowerBound >= ceil(work/m): a served
// bound may be weaker than the optimum, never stronger than a schedule,
// and every certified bound is at least the average load.
func checkBounds(makespan, lowerBound, work int64, m int) error {
	if makespan < lowerBound {
		return fmt.Errorf("makespan %d below its lowerBound %d", makespan, lowerBound)
	}
	if avg := (work + int64(m) - 1) / int64(m); lowerBound < avg {
		return fmt.Errorf("lowerBound %d below the average load %d", lowerBound, avg)
	}
	return nil
}

// checkSameRun requires a served schedule to equal a run of the other
// engine on the same canonical instance, field by field.
func checkSameRun(got serve.ScheduleResponse, want sim.Result) error {
	if got.Makespan != want.Makespan || got.Steps != want.Steps || got.JobHops != want.JobHops {
		return fmt.Errorf("%s served makespan/steps/hops %d/%d/%d, the other engine gives %d/%d/%d",
			got.Algorithm, got.Makespan, got.Steps, got.JobHops, want.Makespan, want.Steps, want.JobHops)
	}
	return nil
}

// checkSameBody requires a dihedral copy's answer to be byte-identical
// to the answer for the first copy seen.
func checkSameBody(ref, got []byte) error {
	if !bytes.Equal(ref, got) {
		return fmt.Errorf("body differs across dihedral copies: %.120q vs %.120q", ref, got)
	}
	return nil
}

// checkCompare requires lbBest <= optimum <= every algorithm's makespan
// and every factor >= 1.
func checkCompare(resp serve.CompareResponse, lbBest int64, algs int) error {
	o := resp.Opt.Length
	if o < lbBest {
		return fmt.Errorf("optimum %d below lb.Best %d", o, lbBest)
	}
	if len(resp.Runs) != algs {
		return fmt.Errorf("%d runs, want %d", len(resp.Runs), algs)
	}
	for name, r := range resp.Runs {
		if r.Makespan < o {
			return fmt.Errorf("%s makespan %d below the optimum %d", name, r.Makespan, o)
		}
		if r.Factor < 1 {
			return fmt.Errorf("%s factor %g below 1", name, r.Factor)
		}
	}
	return nil
}

// sessionStep is what one append answered.
type sessionStep struct {
	now       int64
	processed int64 // sum of the per-processor processed totals
}

// checkSessionSteps requires the engine clock and the processed total to
// never decrease across appends. It returns the index of the first
// append that breaks this, with the error, or -1 and nil.
func checkSessionSteps(steps []sessionStep) (int, error) {
	for i := 1; i < len(steps); i++ {
		if steps[i].now < steps[i-1].now {
			return i, fmt.Errorf("append %d: now went back from %d to %d", i, steps[i-1].now, steps[i].now)
		}
		if steps[i].processed < steps[i-1].processed {
			return i, fmt.Errorf("append %d: processed went back from %d to %d", i, steps[i-1].processed, steps[i].processed)
		}
	}
	return -1, nil
}

// checkTerminal requires a deleted session's snapshot to have processed
// exactly the work it was given, to respect its lower bound, and to
// equal a one-shot online.Run on the concatenated arrivals.
func checkTerminal(snap serve.SessionSnapshot, work int64, oneShot online.Result) error {
	if !snap.Terminal || !snap.Quiescent {
		return fmt.Errorf("snapshot not terminal and quiescent")
	}
	if got := sum(snap.Processed); got != work {
		return fmt.Errorf("terminal processed sum %d, appended work %d", got, work)
	}
	if snap.Makespan < snap.LowerBound {
		return fmt.Errorf("makespan %d below its lowerBound %d", snap.Makespan, snap.LowerBound)
	}
	if snap.Makespan != oneShot.Makespan || snap.MaxFlowTime != oneShot.MaxFlowTime ||
		snap.Steps != oneShot.Steps || snap.JobHops != oneShot.JobHops || snap.Migrated != oneShot.Migrated {
		return fmt.Errorf("session makespan/flow/steps/hops/migrated %d/%d/%d/%d/%d, one-shot %d/%d/%d/%d/%d",
			snap.Makespan, snap.MaxFlowTime, snap.Steps, snap.JobHops, snap.Migrated,
			oneShot.Makespan, oneShot.MaxFlowTime, oneShot.Steps, oneShot.JobHops, oneShot.Migrated)
	}
	if len(snap.Processed) != len(oneShot.Processed) {
		return fmt.Errorf("processed has %d entries, one-shot %d", len(snap.Processed), len(oneShot.Processed))
	}
	for v := range snap.Processed {
		if snap.Processed[v] != oneShot.Processed[v] {
			return fmt.Errorf("processor %d processed %d, one-shot %d", v, snap.Processed[v], oneShot.Processed[v])
		}
	}
	return nil
}

func sum(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}
