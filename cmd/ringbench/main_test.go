package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func validFile() BenchFile {
	return BenchFile{
		Schema:    BenchSchema,
		Seq:       1,
		CreatedAt: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).Format(time.RFC3339),
		Env:       currentEnv(),
		Results: []BenchResult{
			{Name: "a", Iters: 10, NsPerOp: 100},
			{Name: "b", Iters: 5, NsPerOp: 2000, Extra: map[string]float64{"steps": 7}},
		},
	}
}

func TestValidateBenchFile(t *testing.T) {
	if err := ValidateBenchFile(validFile()); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*BenchFile)
		want   string
	}{
		{"wrong schema", func(f *BenchFile) { f.Schema = "other/v9" }, "schema"},
		{"zero seq", func(f *BenchFile) { f.Seq = 0 }, "seq"},
		{"bad timestamp", func(f *BenchFile) { f.CreatedAt = "yesterday" }, "createdAt"},
		{"no env", func(f *BenchFile) { f.Env = BenchEnv{} }, "env"},
		{"no results", func(f *BenchFile) { f.Results = nil }, "no results"},
		{"dup name", func(f *BenchFile) { f.Results[1].Name = "a" }, "duplicate"},
		{"zero nsPerOp", func(f *BenchFile) { f.Results[0].NsPerOp = 0 }, "malformed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFile()
			tc.mutate(&f)
			err := ValidateBenchFile(f)
			if err == nil {
				t.Fatalf("accepted %+v", f)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCompareGate pins the regression arithmetic: flagged strictly above
// the threshold, one-sided benchmarks skipped, deltas name-sorted.
func TestCompareGate(t *testing.T) {
	old := validFile()
	old.Results = []BenchResult{
		{Name: "fine", Iters: 1, NsPerOp: 1000},
		{Name: "edge", Iters: 1, NsPerOp: 1000},
		{Name: "slow", Iters: 1, NsPerOp: 1000},
		{Name: "retired", Iters: 1, NsPerOp: 1000},
	}
	new := validFile()
	new.Results = []BenchResult{
		{Name: "slow", Iters: 1, NsPerOp: 1300},  // +30% → regression
		{Name: "edge", Iters: 1, NsPerOp: 1250},  // exactly +25% → not strictly above
		{Name: "fine", Iters: 1, NsPerOp: 900},   // faster
		{Name: "brandnew", Iters: 1, NsPerOp: 1}, // no baseline → skipped
	}
	deltas := Compare(old, new, 0.25)
	if len(deltas) != 3 {
		t.Fatalf("deltas = %+v, want 3 (one-sided benchmarks skipped)", deltas)
	}
	want := map[string]bool{"edge": false, "fine": false, "slow": true}
	for i, d := range deltas {
		if i > 0 && deltas[i-1].Name > d.Name {
			t.Fatalf("deltas not name-sorted: %+v", deltas)
		}
		reg, ok := want[d.Name]
		if !ok || d.Regression != reg {
			t.Fatalf("delta %+v, want regression=%v", d, reg)
		}
	}
}

// TestComparePerStep pins the step-granular side channel: deltas carry
// nsPerStep numbers exactly when both sides publish them, and the
// regression verdict stays based on ns/op.
func TestComparePerStep(t *testing.T) {
	old := validFile()
	old.Results = []BenchResult{
		{Name: "bigring_step/C1/m1e6", Iters: 1, NsPerOp: 1000, Extra: map[string]float64{"nsPerStep": 1000}},
		{Name: "solver/m64", Iters: 1, NsPerOp: 500},
	}
	new := validFile()
	new.Results = []BenchResult{
		{Name: "bigring_step/C1/m1e6", Iters: 1, NsPerOp: 2000, Extra: map[string]float64{"nsPerStep": 2000}},
		{Name: "solver/m64", Iters: 1, NsPerOp: 500},
	}
	deltas := Compare(old, new, 0.25)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %+v, want 2", deltas)
	}
	for _, d := range deltas {
		switch d.Name {
		case "bigring_step/C1/m1e6":
			if d.StepRatio != 2 || d.OldNsStep != 1000 || d.NewNsStep != 2000 || !d.Regression {
				t.Errorf("step delta = %+v, want 1000->2000 ns/step regression", d)
			}
		case "solver/m64":
			if d.StepRatio != 0 || d.OldNsStep != 0 || d.NewNsStep != 0 {
				t.Errorf("non-step delta carries step numbers: %+v", d)
			}
		}
	}
}

func TestBenchFileRoundTripAndLatest(t *testing.T) {
	dir := t.TempDir()
	f1 := validFile()
	f2 := validFile()
	f2.Seq = 2
	f2.Results[0].NsPerOp = 123
	for _, f := range []BenchFile{f1, f2} {
		if err := WriteBenchFile(filepath.Join(dir, BenchFileName(f.Seq)), f); err != nil {
			t.Fatal(err)
		}
	}
	got, path, ok, err := LatestBenchFile(dir)
	if err != nil || !ok {
		t.Fatalf("LatestBenchFile: ok=%v err=%v", ok, err)
	}
	if filepath.Base(path) != "BENCH_0002.json" || got.Seq != 2 || got.Results[0].NsPerOp != 123 {
		t.Fatalf("latest = %s seq %d (%+v)", path, got.Seq, got.Results[0])
	}

	if _, _, ok, err := LatestBenchFile(t.TempDir()); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v, want no baseline", ok, err)
	}

	bad := validFile()
	bad.Schema = "nope"
	if err := WriteBenchFile(filepath.Join(dir, "x.json"), bad); err == nil {
		t.Fatal("WriteBenchFile accepted an invalid point")
	}
}

// TestCommittedBaseline validates the repository's committed trajectory:
// every BENCH_*.json at the root must load, and the first point carries
// the full pinned suite.
func TestCommittedBaseline(t *testing.T) {
	f, path, ok, err := LatestBenchFile("../..")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no committed BENCH_*.json at the repository root")
	}
	t.Logf("latest committed point: %s (seq %d)", path, f.Seq)
	names := map[string]bool{}
	for _, r := range f.Results {
		names[r.Name] = true
	}
	wanted := []string{
		"engine_step/C1/m256", "engine_step/A2/m256", "canonicalize/m512",
		"solver/m64", "cache_hit/schedule", "schedule_e2e/C1/m64",
	}
	if f.Seq >= 2 {
		// The big-ring suite joined the trajectory at seq 2.
		wanted = append(wanted,
			"bigring_step/C1/m1e5", "bigring_step/C1/m1e6",
			"bigring_step/A2/m1e5", "bigring_step/A2/m1e6")
	}
	if f.Seq >= 3 {
		// The span-parallel suite joined at seq 3.
		for _, alg := range []string{"C1", "A2"} {
			for _, sz := range []string{"m1e5", "m1e6"} {
				for _, w := range []string{"w1", "w4", "w8"} {
					wanted = append(wanted, "bigring_par/"+alg+"/"+sz+"/"+w)
				}
			}
		}
	}
	for _, want := range wanted {
		if !names[want] {
			t.Errorf("committed point lacks pinned benchmark %q", want)
		}
	}
}

// TestRunRecordsPoint runs the binary's entry point in short mode
// against an empty directory: it must record seq 1, skip the gate, and
// produce a loadable point.
func TestRunRecordsPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark run skipped in -short")
	}
	dir := t.TempDir()
	var out, errw bytes.Buffer
	if err := run([]string{"-short", "-dir", dir}, &out, &errw); err != nil {
		t.Fatalf("run: %v\n%s%s", err, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "regression gate skipped") {
		t.Fatalf("first run should skip the gate:\n%s", out.String())
	}
	f, err := LoadBenchFile(filepath.Join(dir, "BENCH_0001.json"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 1 || !f.Short || len(f.Results) != 24 {
		t.Fatalf("recorded point = seq %d short %v results %d", f.Seq, f.Short, len(f.Results))
	}
	for _, r := range f.Results {
		if strings.HasPrefix(r.Name, "engine_step/") || strings.HasPrefix(r.Name, "bigring_step/") {
			if r.Extra["nsPerStep"] <= 0 {
				t.Errorf("%s: step benchmark without Extra[nsPerStep]: %+v", r.Name, r)
			}
		}
	}
}

func TestRunRejectsStrayArgs(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"stray"}, &out, &errw); err == nil {
		t.Fatal("expected an error for stray positional arguments")
	}
}
