package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"time"

	"ringsched/internal/bigring"
	"ringsched/internal/bucket"
	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/online"
	"ringsched/internal/opt"
	"ringsched/internal/sim"
	"ringsched/internal/workload"
)

// BenchSchema identifies the committed perf-trajectory format: one
// BENCH_<seq>.json per recorded point, each a full run of the pinned
// suite plus the environment it ran on. Files are additive — a new
// point never rewrites an old one — so the sequence is the repository's
// speed history.
const BenchSchema = "ringsched.bench/v1"

// BenchFile is one committed trajectory point.
type BenchFile struct {
	Schema    string        `json:"schema"`
	Seq       int           `json:"seq"`
	CreatedAt string        `json:"createdAt"`
	Short     bool          `json:"short"`
	Env       BenchEnv      `json:"env"`
	Results   []BenchResult `json:"results"`
}

// BenchEnv fingerprints the machine a point was recorded on. Comparing
// points from different fingerprints measures hardware as much as code;
// the regression gate still runs (the threshold is the allowance), but
// the mismatch is called out in the comparison output.
type BenchEnv struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() BenchEnv {
	return BenchEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// BenchResult is one benchmark's line in a point.
type BenchResult struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"nsPerOp"`
	Extra   map[string]float64 `json:"extra,omitempty"`
}

// ValidateBenchFile checks a decoded point against the schema rules the
// regression gate depends on.
func ValidateBenchFile(f BenchFile) error {
	if f.Schema != BenchSchema {
		return fmt.Errorf("schema %q, want %q", f.Schema, BenchSchema)
	}
	if f.Seq < 1 {
		return fmt.Errorf("seq %d, want >= 1", f.Seq)
	}
	if _, err := time.Parse(time.RFC3339, f.CreatedAt); err != nil {
		return fmt.Errorf("createdAt: %v", err)
	}
	if f.Env.GoVersion == "" || f.Env.GOOS == "" || f.Env.GOARCH == "" {
		return fmt.Errorf("incomplete env fingerprint: %+v", f.Env)
	}
	if len(f.Results) == 0 {
		return fmt.Errorf("no results")
	}
	seen := map[string]bool{}
	for _, r := range f.Results {
		if r.Name == "" || r.Iters < 1 || r.NsPerOp <= 0 {
			return fmt.Errorf("malformed result %+v", r)
		}
		if seen[r.Name] {
			return fmt.Errorf("duplicate result %q", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}

// ---- the pinned suite ----

// benchmark is one pinned workload: setup builds state outside the
// timer, op is the measured unit.
type benchmark struct {
	name string
	run  func(minTime time.Duration) BenchResult
}

// measure runs op in growing batches until at least minTime has been
// spent inside the timer, testing.B-style, and reports the aggregate.
func measure(name string, minTime time.Duration, op func(i int)) BenchResult {
	var (
		iters   int64
		elapsed time.Duration
		batch   = 1
	)
	for elapsed < minTime {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op(int(iters) + i)
		}
		elapsed += time.Since(start)
		iters += int64(batch)
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return BenchResult{
		Name:    name,
		Iters:   iters,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(iters),
	}
}

// suite returns the pinned benchmarks. Workloads are fixed — same
// instances, same seeds — so points along the trajectory measure the
// code, not the input. The macro benchmarks (cache hit, end-to-end
// schedule) live in main.go next to the server plumbing they need.
func microSuite() []benchmark {
	// engine_step: the §6 hot loop. A point load on a 256-ring pushed
	// through C1; ns/step is the engine's unit cost.
	engine := func(alg string) benchmark {
		name := "engine_step/" + alg + "/m256"
		return benchmark{name: name, run: func(minTime time.Duration) BenchResult {
			in := workload.Point(256, 4096)
			spec, err := bucket.ByName(alg)
			if err != nil {
				panic(err)
			}
			var steps int64
			res := measure(name, minTime, func(int) {
				r, err := sim.Run(in, spec, sim.Options{})
				if err != nil {
					panic(err)
				}
				steps = r.Steps
			})
			res.Extra = map[string]float64{
				"steps":     float64(steps),
				"nsPerStep": res.NsPerOp / float64(steps),
			}
			return res
		}}
	}

	// canonicalize: the serving tier's admission cost — least-rotation
	// scan plus SHA-256 fingerprint on a 512-ring random load.
	canonical := benchmark{name: "canonicalize/m512", run: func(minTime time.Duration) BenchResult {
		in := workload.Uniform(512, 100, 7)
		return measure("canonicalize/m512", minTime, func(int) {
			can := in.Canonical()
			_ = can.Fingerprint()
		})
	}}

	// solver: one exact optimum on a pinned 64-ring region load —
	// bracket seeding, memoization and warm networks included.
	solver := benchmark{name: "solver/m64", run: func(minTime time.Duration) BenchResult {
		in := workload.Region(64, 512)
		return measure("solver/m64", minTime, func(int) {
			res := opt.Uncapacitated(in, opt.Limits{})
			if !res.Exact {
				panic("solver benchmark fell back to a lower bound")
			}
		})
	}}

	// lb_best: the Lemma 1 certificate every schedule answer carries, on
	// a point-plus-random 4096-ring (a size the serving tier still routes
	// to the pool engine).
	lbBest := benchmark{name: "lb_best/m4096", run: func(minTime time.Duration) BenchResult {
		in := workload.PointPlusRandom(4096, 100_000, 7)
		return measure("lb_best/m4096", minTime, func(int) { lb.Best(in) })
	}}

	// online_lower_bound: the release-aware bound a streaming session
	// recomputes after every append, at the end of a 40-wave session on
	// a 256-ring (8 batches a wave, releases overlapping the next wave
	// as appends allow). The engine is stepped outside the timer.
	onlineLB := benchmark{name: "online_lower_bound/w40", run: func(minTime time.Duration) BenchResult {
		const m, waves, perWave = 256, 40, 8
		e, err := online.NewEngine(m, online.Params{})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(7))
		for w := int64(0); w < waves; w++ {
			batch := make([]online.Batch, perWave)
			for i := range batch {
				batch[i] = online.Batch{Time: 4*w + rng.Int63n(8), Proc: rng.Intn(m), Count: rng.Int63n(200)}
			}
			if err := e.Append(batch...); err != nil {
				panic(err)
			}
			if err := e.StepUntil(nil, 4*w+4); err != nil {
				panic(err)
			}
		}
		return measure("online_lower_bound/w40", minTime, func(int) { e.LowerBound() })
	}}

	// bigring_step: the big-ring engine's unit cost at production scale.
	// One op is one Step call on a dense seeded ring (Reset, which
	// allocates nothing, rewinds a completed run), so NsPerOp is
	// directly ns/step and is mirrored into Extra["nsPerStep"] for the
	// per-step regression report. The pool engine cannot be pinned at
	// these sizes — its O(m) per-step scan would dominate the suite —
	// which is the asymmetry this entry exists to document.
	bigStep := func(alg string, m int, label string) benchmark {
		name := "bigring_step/" + alg + "/" + label
		return benchmark{name: name, run: func(minTime time.Duration) BenchResult {
			spec, err := bucket.ByName(alg)
			if err != nil {
				panic(err)
			}
			e, err := bigring.New(workload.Uniform(m, 100, 7), spec, bigring.Options{})
			if err != nil {
				panic(err)
			}
			res := measure(name, minTime, func(int) {
				if e.Step() {
					e.Reset()
				}
			})
			res.Extra = map[string]float64{"nsPerStep": res.NsPerOp}
			return res
		}}
	}

	// bigring_par: the span-parallel stepping mode at fixed worker
	// counts. Same dense seeded rings as bigring_step, so w1 vs the
	// sequential entry isolates dispatch overhead and w4/w8 measure the
	// fork/join scaling. Workers is pinned explicitly — never GOMAXPROCS
	// — so the trajectory compares like with like across machines (the
	// env fingerprint still records how many CPUs backed the pinned
	// goroutines; on a single-core box w4/w8 time-slice and the gain is
	// only visible on multi-core runners).
	bigStepPar := func(alg string, m int, label string, w int) benchmark {
		name := fmt.Sprintf("bigring_par/%s/%s/w%d", alg, label, w)
		return benchmark{name: name, run: func(minTime time.Duration) BenchResult {
			spec, err := bucket.ByName(alg)
			if err != nil {
				panic(err)
			}
			e, err := bigring.New(workload.Uniform(m, 100, 7), spec, bigring.Options{Workers: w})
			if err != nil {
				panic(err)
			}
			defer e.Close()
			res := measure(name, minTime, func(int) {
				if e.Step() {
					e.Reset()
				}
			})
			res.Extra = map[string]float64{
				"nsPerStep": res.NsPerOp,
				"workers":   float64(e.Workers()),
			}
			return res
		}}
	}

	benches := []benchmark{
		engine("C1"), engine("A2"), canonical, solver, lbBest, onlineLB,
		bigStep("C1", 100_000, "m1e5"), bigStep("C1", 1_000_000, "m1e6"),
		bigStep("A2", 100_000, "m1e5"), bigStep("A2", 1_000_000, "m1e6"),
	}
	for _, alg := range []string{"C1", "A2"} {
		for _, sz := range []struct {
			m     int
			label string
		}{{100_000, "m1e5"}, {1_000_000, "m1e6"}} {
			for _, w := range []int{1, 4, 8} {
				benches = append(benches, bigStepPar(alg, sz.m, sz.label, w))
			}
		}
	}
	return benches
}

// pinnedInstance is the macro benchmarks' base instance.
func pinnedInstance() instance.Instance {
	return workload.Point(64, 1000)
}

// ---- trajectory files ----

var benchFileRe = regexp.MustCompile(`^BENCH_(\d{4})\.json$`)

// BenchFileName renders the canonical committed name for a sequence
// number.
func BenchFileName(seq int) string { return fmt.Sprintf("BENCH_%04d.json", seq) }

// LatestBenchFile scans dir for committed BENCH_<seq>.json points and
// loads the highest one (ok=false when none exist).
func LatestBenchFile(dir string) (BenchFile, string, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return BenchFile{}, "", false, err
	}
	bestSeq, bestName := 0, ""
	for _, e := range entries {
		m := benchFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		var seq int
		fmt.Sscanf(m[1], "%d", &seq)
		if seq > bestSeq {
			bestSeq, bestName = seq, e.Name()
		}
	}
	if bestSeq == 0 {
		return BenchFile{}, "", false, nil
	}
	path := filepath.Join(dir, bestName)
	f, err := LoadBenchFile(path)
	if err != nil {
		return BenchFile{}, "", false, err
	}
	return f, path, true, nil
}

// LoadBenchFile reads and validates one point.
func LoadBenchFile(path string) (BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return BenchFile{}, err
	}
	var f BenchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return BenchFile{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := ValidateBenchFile(f); err != nil {
		return BenchFile{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// WriteBenchFile marshals a point to path (indented, trailing newline —
// the committed-file convention).
func WriteBenchFile(path string, f BenchFile) error {
	if err := ValidateBenchFile(f); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ---- regression gate ----

// Delta is one benchmark's old-vs-new comparison. For step-granular
// benchmarks (the engine_step and bigring_step entries, which publish
// Extra["nsPerStep"]) the per-step numbers ride along: ns/op of an
// engine benchmark mixes per-step cost with how many steps a run took,
// and the per-step figure is the one an engine change actually moves.
type Delta struct {
	Name       string
	OldNs      float64
	NewNs      float64
	Ratio      float64 // new/old; > 1 means slower
	Regression bool

	// Per-step comparison; zero when either side lacks nsPerStep.
	OldNsStep float64
	NewNsStep float64
	StepRatio float64
}

// Compare matches results by name and flags every benchmark that got
// more than threshold slower (threshold 0.25 = fail above +25%).
// Benchmarks present on only one side are skipped — a -short run may be
// a subset of a full baseline.
func Compare(old, new BenchFile, threshold float64) []Delta {
	prev := make(map[string]BenchResult, len(old.Results))
	for _, r := range old.Results {
		prev[r.Name] = r
	}
	var deltas []Delta
	for _, r := range new.Results {
		p, ok := prev[r.Name]
		if !ok {
			continue
		}
		ratio := r.NsPerOp / p.NsPerOp
		d := Delta{
			Name:       r.Name,
			OldNs:      p.NsPerOp,
			NewNs:      r.NsPerOp,
			Ratio:      ratio,
			Regression: ratio > 1+threshold,
		}
		if os, ns := p.Extra["nsPerStep"], r.Extra["nsPerStep"]; os > 0 && ns > 0 {
			d.OldNsStep, d.NewNsStep, d.StepRatio = os, ns, ns/os
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas
}
