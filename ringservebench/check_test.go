package main

import (
	"encoding/json"
	"testing"

	"ringsched/internal/bigring"
	"ringsched/internal/bucket"
	"ringsched/internal/instance"
	"ringsched/internal/online"
	"ringsched/internal/serve"
	"ringsched/internal/sim"
	"ringsched/internal/workload"
)

// Each checker must pass a correct answer and reject a corrupted one, so
// a checker that always passes (or always fails) cannot go unnoticed.

// servedC1 serves one C1 request on an in-process daemon and returns the
// answer with the instance it was computed on.
func servedC1(t *testing.T) (serve.ScheduleResponse, []byte, instance.Instance) {
	t.Helper()
	h, err := startServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	cs, err := newClients(h.base, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer freeClients(cs)
	in := workload.PointPlusRandom(64, workload.Big, 7)
	rep := cs[0].call("POST", "/v1/schedule", mustJSON(serve.ScheduleRequest{Instance: in, Algorithm: "C1"}))
	if rep.err != nil || rep.status != 200 {
		t.Fatalf("schedule: %s", rep)
	}
	var rec answerRec
	if err := decodeAnswer(rep.body, false, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.schedule("C1"), rep.body, in
}

// viaRecord passes a compare answer through the record the benchmark
// keeps of it, as the checks after the timed phase see it.
func viaRecord(t *testing.T, resp serve.CompareResponse) serve.CompareResponse {
	t.Helper()
	var rec answerRec
	if err := decodeAnswer(mustJSON(resp), true, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.compare()
}

func TestCheckBoundsRejectsMakespanBelowLowerBound(t *testing.T) {
	resp, _, in := servedC1(t)
	if err := checkBounds(resp.Makespan, resp.LowerBound, in.TotalWork(), in.M); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := checkBounds(resp.LowerBound-1, resp.LowerBound, in.TotalWork(), in.M); err == nil {
		t.Fatal("makespan below its lowerBound accepted")
	}
	if err := checkBounds(resp.Makespan, 0, in.TotalWork(), in.M); err == nil {
		t.Fatal("lowerBound below the average load accepted")
	}
}

func TestCheckSameBodyRejectsDihedralDifference(t *testing.T) {
	_, body, _ := servedC1(t)
	if err := checkSameBody(body, append([]byte(nil), body...)); err != nil {
		t.Fatalf("identical bodies rejected: %v", err)
	}
	var resp serve.ScheduleResponse
	json.Unmarshal(body, &resp)
	resp.JobHops++
	if err := checkSameBody(body, mustJSON(resp)); err == nil {
		t.Fatal("a body differing across dihedral copies accepted")
	}
}

func TestCheckSameRunRejectsOtherEngineDisagreement(t *testing.T) {
	resp, _, in := servedC1(t)
	want, err := bigring.Run(in.Canonical(), bucket.C1(), bigring.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameRun(resp, want); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for _, corrupt := range []func(*sim.Result){
		func(r *sim.Result) { r.Makespan++ },
		func(r *sim.Result) { r.Steps-- },
		func(r *sim.Result) { r.JobHops++ },
	} {
		other := want
		corrupt(&other)
		if err := checkSameRun(resp, other); err == nil {
			t.Fatalf("disagreement with the other engine accepted: %+v vs %+v", resp, other)
		}
	}
}

func TestCheckCompareRejectsOptimumAboveMakespan(t *testing.T) {
	resp := serve.CompareResponse{
		Opt:  serve.OptimalResponse{Length: 10},
		Runs: map[string]serve.CompareRun{"A1": {Makespan: 12, Factor: 1.2}, "C1": {Makespan: 10, Factor: 1}},
	}
	if err := checkCompare(viaRecord(t, resp), 9, 2); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := checkCompare(viaRecord(t, resp), 11, 2); err == nil {
		t.Fatal("optimum below lb.Best accepted")
	}
	resp.Runs["C1"] = serve.CompareRun{Makespan: 9, Factor: 0.9}
	if err := checkCompare(viaRecord(t, resp), 9, 2); err == nil {
		t.Fatal("makespan below the optimum accepted")
	}
	resp.Runs["C1"] = serve.CompareRun{Makespan: 10, Factor: 1}
	resp.Runs["X9"] = serve.CompareRun{Makespan: 11, Factor: 1.1}
	if err := checkCompare(viaRecord(t, resp), 9, 2); err == nil {
		t.Fatal("a run under an unknown name accepted")
	}
}

// servedSession streams two waves into a session on an in-process daemon
// and returns the terminal snapshot, the appended work and the one-shot
// reference run.
func servedSession(t *testing.T) (serve.SessionSnapshot, []sessionStep, int64, online.Result) {
	t.Helper()
	h, err := startServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	cs, err := newClients(h.base, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer freeClients(cs)
	w := &sessionStream{seed: 3}
	p := w.plan(0, 0, 2)
	rep := cs[0].call("POST", "/v1/session", mustJSON(serve.SessionCreateRequest{Instance: &p.seed}))
	var created serve.SessionCreateResponse
	if err := json.Unmarshal(rep.body, &created); err != nil || rep.status != 200 {
		t.Fatalf("create: %s", rep)
	}
	var steps []sessionStep
	for wv, wave := range p.waves {
		rep := cs[0].call("POST", "/v1/session/"+created.ID+"/arrivals", mustJSON(serve.SessionArrivalsRequest{Arrivals: wave, StepTo: stepTo(wv)}))
		var resp serve.SessionArrivalsResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil || rep.status != 200 {
			t.Fatalf("append: %s", rep)
		}
		steps = append(steps, sessionStep{now: resp.Now, processed: sum(resp.Processed)})
	}
	rep = cs[0].call("DELETE", "/v1/session/"+created.ID, nil)
	var snap serve.SessionSnapshot
	if err := json.Unmarshal(rep.body, &snap); err != nil || rep.status != 200 {
		t.Fatalf("delete: %s", rep)
	}
	var rec terminalRec // as the benchmark keeps it
	rec.set(snap)
	oin := onlineInstance(p.seed, flatten(p.waves))
	oneShot, err := online.Run(oin, online.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return rec.snapshot(), steps, oin.TotalWork(), oneShot
}

func TestCheckTerminalRejectsProcessedSumNotAppendedWork(t *testing.T) {
	snap, steps, work, oneShot := servedSession(t)
	if _, err := checkSessionSteps(steps); err != nil {
		t.Fatalf("correct appends rejected: %v", err)
	}
	if err := checkTerminal(snap, work, oneShot); err != nil {
		t.Fatalf("correct terminal snapshot rejected: %v", err)
	}
	if err := checkTerminal(snap, work+1, oneShot); err == nil {
		t.Fatal("processed sum differing from the appended work accepted")
	}
	lost := snap
	lost.Processed = append([]int64(nil), snap.Processed...)
	lost.Processed[0]--
	if err := checkTerminal(lost, work, oneShot); err == nil {
		t.Fatal("terminal snapshot that lost a job accepted")
	}
	late := snap
	late.Makespan++
	if err := checkTerminal(late, work, oneShot); err == nil {
		t.Fatal("terminal snapshot differing from the one-shot run accepted")
	}
	back := append([]sessionStep(nil), steps...)
	back[len(back)-1].processed = back[0].processed - 1
	if k, err := checkSessionSteps(back); err == nil || k != len(back)-1 {
		t.Fatalf("processed total going back at append %d: got index %d, error %v", len(back)-1, k, err)
	}
}
