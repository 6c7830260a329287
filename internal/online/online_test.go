package online

import (
	"math/rand"
	"slices"
	"testing"

	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/opt"
)

func mustInstance(t *testing.T, m int, batches []Batch) Instance {
	t.Helper()
	in, err := NewInstance(m, batches)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	for _, bad := range []struct {
		m int
		b []Batch
	}{
		{0, nil},
		{3, []Batch{{Time: -1, Proc: 0, Count: 1}}},
		{3, []Batch{{Time: 0, Proc: 5, Count: 1}}},
		{3, []Batch{{Time: 0, Proc: 0, Count: -1}}},
	} {
		if _, err := NewInstance(bad.m, bad.b); err == nil {
			t.Errorf("NewInstance(%d, %v) accepted", bad.m, bad.b)
		}
	}
	in := mustInstance(t, 3, []Batch{{Time: 5, Proc: 0, Count: 1}, {Time: 1, Proc: 2, Count: 2}})
	if in.Batches[0].Time != 1 {
		t.Error("batches not sorted by release")
	}
	if in.TotalWork() != 3 || in.MaxRelease() != 5 {
		t.Errorf("aggregates: %d, %d", in.TotalWork(), in.MaxRelease())
	}
}

func TestStaticSpecialCaseMatchesLemma1(t *testing.T) {
	// Everything released at 0: the online bound equals the static one.
	in := mustInstance(t, 50, []Batch{{Time: 0, Proc: 25, Count: 400}})
	if got := LowerBound(in); got != 20 {
		t.Errorf("LowerBound = %d, want 20", got)
	}
}

func TestLowerBoundUsesReleases(t *testing.T) {
	// A batch released at 100 forces L >= 100 + its static bound.
	in := mustInstance(t, 50, []Batch{
		{Time: 0, Proc: 0, Count: 10},
		{Time: 100, Proc: 25, Count: 100},
	})
	if got := LowerBound(in); got != 110 {
		t.Errorf("LowerBound = %d, want 110", got)
	}
}

func TestRunCompletesAllWork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(20)
		var batches []Batch
		for k := 0; k < 1+rng.Intn(8); k++ {
			batches = append(batches, Batch{
				Time:  int64(rng.Intn(40)),
				Proc:  rng.Intn(m),
				Count: int64(rng.Intn(100)),
			})
		}
		in := mustInstance(t, m, batches)
		for _, p := range []Params{{}, {Bidirectional: true}} {
			res, err := Run(in, p)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			var done int64
			for _, c := range res.Processed {
				done += c
			}
			if done != in.TotalWork() {
				t.Errorf("trial %d: processed %d of %d", trial, done, in.TotalWork())
			}
			if res.Makespan < in.MaxRelease() && in.TotalWork() > 0 {
				// Jobs released at MaxRelease cannot finish before then.
				lastHasWork := false
				for _, b := range in.Batches {
					if b.Time == in.MaxRelease() && b.Count > 0 {
						lastHasWork = true
					}
				}
				if lastHasWork {
					t.Errorf("trial %d: makespan %d before last release %d", trial, res.Makespan, in.MaxRelease())
				}
			}
		}
	}
}

func TestRunEmptyAndSingleProcessor(t *testing.T) {
	res, err := Run(mustInstance(t, 4, nil), Params{})
	if err != nil || res.Makespan != 0 {
		t.Errorf("empty: %+v, %v", res, err)
	}
	res, err = Run(mustInstance(t, 1, []Batch{{Time: 3, Proc: 0, Count: 5}}), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 8 { // released at 3, five units of serial work
		t.Errorf("m=1 makespan = %d, want 8", res.Makespan)
	}
}

func TestRunNeverBeatsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		m := 3 + rng.Intn(15)
		var batches []Batch
		for k := 0; k < 1+rng.Intn(6); k++ {
			batches = append(batches, Batch{
				Time:  int64(rng.Intn(30)),
				Proc:  rng.Intn(m),
				Count: int64(1 + rng.Intn(80)),
			})
		}
		in := mustInstance(t, m, batches)
		res, err := Run(in, Params{Bidirectional: true})
		if err != nil {
			t.Fatal(err)
		}
		if b := LowerBound(in); res.Makespan < b {
			t.Errorf("trial %d: makespan %d beats LB %d", trial, res.Makespan, b)
		}
	}
}

// lowerBoundRescan is the direct form of LowerBound, kept as its oracle:
// rebuild the works vector for every distinct release time and take its
// exact window and average bounds.
func lowerBoundRescan(in Instance) int64 {
	var best int64
	for _, b := range in.Batches {
		works := make([]int64, in.M)
		var n int64
		for _, c := range in.Batches {
			if c.Time >= b.Time {
				works[c.Proc] += c.Count
				n += c.Count
			}
		}
		best = max(best, b.Time+lb.WindowBound(works), b.Time+(n+int64(in.M)-1)/int64(in.M))
	}
	return best
}

func TestLowerBoundMatchesRescan(t *testing.T) {
	grid := append(seededGrid(42), seededGrid(43)...)
	// Releases billions of steps apart: best - r at an early threshold
	// is then far above any window bound the later jobs can certify.
	for _, in := range seededGrid(44) {
		far := Instance{M: in.M, Batches: slices.Clone(in.Batches)}
		for i := range far.Batches {
			far.Batches[i].Time *= 4_000_000_007
		}
		grid = append(grid, far)
	}
	late := mustInstance(t, 8, []Batch{{Time: 0, Proc: 0, Count: 2}, {Time: 3_500_000_001, Proc: 0, Count: 1}})
	if got := LowerBound(late); got != 3_500_000_002 {
		t.Fatalf("LowerBound with a late unit batch = %d, want 3500000002", got)
	}
	grid = append(grid, late)
	for gi, in := range grid {
		if got, want := LowerBound(in), lowerBoundRescan(in); got != want {
			t.Fatalf("grid[%d] (m=%d, %d batches): LowerBound %d, rescan %d", gi, in.M, len(in.Batches), got, want)
		}
	}
}

// TestSessionLowerBoundMatchesRescan grows session-shaped histories — 40
// waves of 8 batches on a 256-ring, each wave's releases overlapping the
// next so the history is out of release order — and checks the engine's
// bound against the rescan after every wave.
func TestSessionLowerBoundMatchesRescan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const m = 256
		e, err := NewEngine(m, Params{})
		if err != nil {
			t.Fatal(err)
		}
		for w := int64(0); w < 40; w++ {
			wave := make([]Batch, 8)
			for i := range wave {
				wave[i] = Batch{Time: 4*w + rng.Int63n(9), Proc: rng.Intn(m), Count: rng.Int63n(1 + 50*seed)}
			}
			if err := e.Append(wave...); err != nil {
				t.Fatal(err)
			}
			if err := e.StepUntil(nil, 4*w+4); err != nil {
				t.Fatal(err)
			}
			want := lowerBoundRescan(Instance{M: m, Batches: e.history})
			if got := e.LowerBound(); got != want {
				t.Fatalf("seed %d wave %d: LowerBound %d, rescan %d", seed, w, got, want)
			}
		}
	}
}

func TestOptimalStaticAgreesWithRingSolver(t *testing.T) {
	// All releases at 0: the clairvoyant optimum must match the static
	// solver on the equivalent static instance.
	works := []int64{30, 0, 0, 12, 0, 0, 0, 9}
	var batches []Batch
	for i, x := range works {
		if x > 0 {
			batches = append(batches, Batch{Proc: i, Count: x})
		}
	}
	in := mustInstance(t, len(works), batches)
	got := Optimal(in, opt.Limits{})
	if !got.Exact {
		t.Fatalf("not exact: %+v", got)
	}
	want := opt.Uncapacitated(instance.NewUnit(works), opt.Limits{})
	if got.Length != want.Length {
		t.Errorf("online optimum %d != static %d", got.Length, want.Length)
	}
}

func TestOptimalHandlesReleases(t *testing.T) {
	// One job at time 0 and one at time 10 on the same processor: the
	// optimum is 11 (serve each on arrival).
	in := mustInstance(t, 5, []Batch{
		{Time: 0, Proc: 0, Count: 1},
		{Time: 10, Proc: 0, Count: 1},
	})
	got := Optimal(in, opt.Limits{})
	if !got.Exact || got.Length != 11 {
		t.Errorf("optimum: %+v, want 11", got)
	}
}

func TestOptimalBigLateBatch(t *testing.T) {
	// 100 jobs at time 50 on a wide ring: optimum = 50 + 10.
	in := mustInstance(t, 60, []Batch{{Time: 50, Proc: 30, Count: 100}})
	got := Optimal(in, opt.Limits{})
	if !got.Exact || got.Length != 60 {
		t.Errorf("optimum: %+v, want 60", got)
	}
}

func TestOnlineCompetitiveRatio(t *testing.T) {
	// The online algorithm cannot beat the clairvoyant optimum, and on
	// these families it stays within a small factor of it.
	rng := rand.New(rand.NewSource(77))
	var worst float64
	for trial := 0; trial < 12; trial++ {
		m := 4 + rng.Intn(20)
		var batches []Batch
		for k := 0; k < 1+rng.Intn(5); k++ {
			batches = append(batches, Batch{
				Time:  int64(rng.Intn(25)),
				Proc:  rng.Intn(m),
				Count: int64(1 + rng.Intn(300)),
			})
		}
		in := mustInstance(t, m, batches)
		o := Optimal(in, opt.Limits{})
		if !o.Exact || o.Length == 0 {
			t.Fatalf("trial %d optimum: %+v", trial, o)
		}
		res, err := Run(in, Params{Bidirectional: true})
		if err != nil {
			t.Fatal(err)
		}
		f := float64(res.Makespan) / float64(o.Length)
		if f < 1.0-1e-9 {
			t.Fatalf("trial %d: online %d beat clairvoyant optimum %d", trial, res.Makespan, o.Length)
		}
		if f > worst {
			worst = f
		}
		if f > 4.0 {
			t.Errorf("trial %d: competitive ratio %.2f out of observed regime", trial, f)
		}
	}
	t.Logf("worst observed competitive ratio: %.2f", worst)
}

func TestFlowTimeTracked(t *testing.T) {
	in := mustInstance(t, 8, []Batch{
		{Time: 0, Proc: 0, Count: 4},
		{Time: 20, Proc: 4, Count: 2},
	})
	res, err := Run(in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFlowTime <= 0 {
		t.Errorf("flow time not tracked: %+v", res)
	}
	if res.MaxFlowTime > res.Makespan {
		t.Errorf("flow time %d exceeds makespan %d", res.MaxFlowTime, res.Makespan)
	}
}
