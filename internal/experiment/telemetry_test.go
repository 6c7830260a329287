package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ringsched/internal/metrics"
	"ringsched/internal/sim"
)

func TestRunSuiteTelemetry(t *testing.T) {
	cases := smallSuite(t)[:2]
	var snaps []Progress
	// One worker: OnProgress fires in completion order, and the
	// snapshot checks below expect input order.
	rep, err := RunSuite(cases, Options{
		Algorithms: []string{"A2", "C1"},
		Metrics:    true,
		OnProgress: func(p Progress) { snaps = append(snaps, p) },
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Suite.Metrics || rep.Suite.TraceExport {
		t.Errorf("suite info = %+v", rep.Suite)
	}
	if rep.Suite.SolverDeadline == 0 {
		t.Error("suite info missing solver deadline")
	}
	for _, cr := range rep.Cases {
		for alg, run := range cr.Runs {
			tl := run.Telemetry
			if tl == nil {
				t.Fatalf("case %s alg %s: no telemetry", cr.ID, alg)
			}
			if tl.IdleFraction < 0 || tl.IdleFraction >= 1 {
				t.Errorf("case %s alg %s: idle fraction %v out of range", cr.ID, alg, tl.IdleFraction)
			}
			if tl.PeakLinkUtilization < 0 || tl.PeakLinkUtilization > 1 {
				t.Errorf("case %s alg %s: link utilization %v out of range", cr.ID, alg, tl.PeakLinkUtilization)
			}
			if tl.TimeToBalance < 0 || tl.TimeToBalance > run.Makespan {
				t.Errorf("case %s alg %s: time-to-balance %d vs makespan %d",
					cr.ID, alg, tl.TimeToBalance, run.Makespan)
			}
		}
	}

	// Live progress: one snapshot per case, monotone, with totals.
	if len(snaps) != len(cases) {
		t.Fatalf("progress snapshots = %d, want %d", len(snaps), len(cases))
	}
	for i, p := range snaps {
		if p.Done != i+1 || p.Total != len(cases) || p.CaseID != cases[i].ID {
			t.Errorf("snapshot %d = %+v", i, p)
		}
	}

	aggs := rep.TelemetryByAlg()
	if len(aggs) != 2 || aggs["A2"].Cases != 2 {
		t.Errorf("telemetry aggregates = %+v", aggs)
	}
	rendered := rep.RenderTelemetry()
	for _, want := range []string{"A2", "C1", "idle (mean)", metrics.SchemaVersion} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered telemetry missing %q:\n%s", want, rendered)
		}
	}
	if !strings.Contains(rep.Markdown(), "## Telemetry") {
		t.Error("markdown missing telemetry section")
	}
}

func TestRunSuiteWithoutMetricsHasNoTelemetry(t *testing.T) {
	rep, err := RunSuite(smallSuite(t)[:1], Options{Algorithms: []string{"C1"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cases[0].Runs["C1"].Telemetry != nil {
		t.Error("telemetry collected without Options.Metrics")
	}
	if len(rep.TelemetryByAlg()) != 0 {
		t.Error("aggregates present without telemetry")
	}
	if rep.RenderTelemetry() != "" {
		t.Error("non-empty telemetry render without telemetry")
	}
	if strings.Contains(rep.Markdown(), "## Telemetry") {
		t.Error("markdown telemetry section without telemetry")
	}
}

// TestRunSuiteTraceOut checks the suite's JSONL export: one trace section
// and one metrics section per run, schema-versioned, labelled with the
// case id, and with aggregates matching the Run counters exactly.
func TestRunSuiteTraceOut(t *testing.T) {
	cases := smallSuite(t)[:1]
	var buf bytes.Buffer
	rep, err := RunSuite(cases, Options{
		Algorithms: []string{"A2", "C1"},
		TraceOut:   &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Suite.TraceExport || !rep.Suite.Metrics {
		t.Errorf("suite info = %+v (TraceOut implies both)", rep.Suite)
	}

	type header struct {
		Schema string `json:"schema"`
		Kind   string `json:"kind"`
		Case   string `json:"case"`
		Alg    string `json:"alg"`
	}
	var traceHeaders, metricHeaders int
	var hops, msgs int64
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			header
			Ev       string `json:"ev"`
			Amount   int64  `json:"amount"`
			JobHops  int64  `json:"jobHops"`
			Messages int64  `json:"messages"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		switch {
		case rec.Kind == "header" && rec.Schema == sim.SchemaTrace:
			traceHeaders++
			if rec.Case != cases[0].ID {
				t.Errorf("trace header case = %q", rec.Case)
			}
		case rec.Kind == "header" && rec.Schema == metrics.SchemaVersion:
			metricHeaders++
		case rec.Kind == "event" && rec.Ev == "send":
			hops += rec.Amount
		case rec.Kind == "event" && rec.Ev == "deliver":
			msgs++
		case rec.Kind == "summary":
			hops -= rec.JobHops
			msgs -= rec.Messages
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if traceHeaders != 2 || metricHeaders != 2 {
		t.Errorf("headers: trace=%d metrics=%d, want 2 each", traceHeaders, metricHeaders)
	}
	// Every summary subtracted its own run's counters: a zero balance
	// means trace events and metric summaries agree run by run in
	// aggregate, and both match what the engine counted.
	if hops != 0 || msgs != 0 {
		t.Errorf("trace/summary imbalance: hops=%d msgs=%d", hops, msgs)
	}
}

func TestReportJSONv2(t *testing.T) {
	rep, err := RunSuite(smallSuite(t)[:1], Options{
		Algorithms: []string{"C1"},
		Metrics:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Schema  string `json:"schema"`
		Options struct {
			SolverDeadlineSeconds float64 `json:"solverDeadlineSeconds"`
			Metrics               bool    `json:"metrics"`
		} `json:"options"`
		Solver struct {
			DeadlineHits int `json:"deadlineHits"`
			ExactCases   int `json:"exactCases"`
			FlowCalls    int `json:"flowCalls"`
		} `json:"solver"`
		Telemetry map[string]struct {
			Cases int `json:"cases"`
		} `json:"telemetry"`
		Cases []struct {
			Runs map[string]struct {
				Makespan  int64      `json:"makespan"`
				Telemetry *Telemetry `json:"telemetry"`
			} `json:"runs"`
		} `json:"cases"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if decoded.Schema != SchemaReport {
		t.Errorf("schema = %q", decoded.Schema)
	}
	if decoded.Options.SolverDeadlineSeconds != 15 || !decoded.Options.Metrics {
		t.Errorf("options = %+v", decoded.Options)
	}
	if decoded.Solver.ExactCases+decoded.Solver.DeadlineHits != 1 || decoded.Solver.FlowCalls < 1 {
		t.Errorf("solver = %+v", decoded.Solver)
	}
	if decoded.Telemetry["C1"].Cases != 1 {
		t.Errorf("telemetry agg = %+v", decoded.Telemetry)
	}
	run := decoded.Cases[0].Runs["C1"]
	if run.Makespan < 1 || run.Telemetry == nil {
		t.Errorf("run detail = %+v", run)
	}
}
