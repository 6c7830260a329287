package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ringsched/internal/bigring"
	"ringsched/internal/bucket"
	"ringsched/internal/instance"
	"ringsched/internal/serve"
	"ringsched/internal/sim"
	"ringsched/internal/workload"
)

// algs are the six bucket algorithms of §6.
var algs = []string{"A1", "B1", "C1", "A2", "B2", "C2"}

// opSeed derives the seed of one item's inputs from the run seed, the
// round and the slot (a splitmix64 finalizer over the three), so the
// same seed gives the same inputs and no two items share theirs.
func opSeed(seed int64, r, slot int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(int64(r))*0xBF58476D1CE4E5B9 + uint64(slot)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// Table 1 generators.
const (
	genPointRand = iota
	genRegionRand
	genUniform
)

var genNames = [...]string{"point+rand", "region+rand", "uniform"}

// genInstance draws one Table 1 instance: point+rand with a Large heavy
// processor, region+rand with a Big heavy region, or uniform loads
// 0..hi.
func genInstance(gen, m int, hi, seed int64) instance.Instance {
	switch gen {
	case genPointRand:
		return workload.PointPlusRandom(m, workload.Large, seed)
	case genRegionRand:
		return workload.RegionPlusRandom(m, workload.Big, seed)
	default:
		return workload.Uniform(m, hi, seed)
	}
}

// dihedralCopy returns a random rotation of in, reflected half the time.
func dihedralCopy(in instance.Instance, rng *rand.Rand) instance.Instance {
	out := in.Rotate(rng.Intn(in.M))
	if rng.Intn(2) == 1 {
		out = out.Reflect()
	}
	return out
}

// mustJSON encodes a request type, which cannot fail by construction.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// decodeLike decodes a request body the way the daemon does (a streaming
// decoder, which also validates the instance) and returns the time.
func decodeLike(body []byte, v any) time.Duration {
	start := time.Now()
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		panic(err) // the bodies are ours and valid by construction
	}
	return time.Since(start)
}

// runBigring runs alg on the canonical instance with the big-ring engine
// at the given worker count. The checks use it as the reference a served
// run must equal, in the stepping mode the daemon did not use.
func runBigring(can instance.Instance, alg string, workers int) (sim.Result, error) {
	spec, err := bucket.ByName(alg)
	if err != nil {
		return sim.Result{}, err
	}
	return bigring.Run(can, spec, bigring.Options{Workers: workers})
}

// servedParallel reports whether the daemon's default big-ring worker
// count steps a ring of m processors in parallel spans.
func servedParallel(m int) bool {
	return runtime.GOMAXPROCS(0) > 1 && m >= bigring.ParallelMinM
}

// failure is an operation a check found wrong.
type failure struct {
	seq int
	why string
}

// checkRecs runs check on every record of every client's arena on two
// goroutines (the reference runs are the costly part) and then books
// the failures on the record's client.
func checkRecs[T any](cs []*client, recs [nClients]*arena[T], check func(rec *T) []failure) {
	type ref struct{ c, i int }
	var (
		mu    sync.Mutex
		found [nClients][]failure
		wg    sync.WaitGroup
		next  = make(chan ref)
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				fs := check(&recs[r.c].recs[r.i])
				mu.Lock()
				found[r.c] = append(found[r.c], fs...)
				mu.Unlock()
			}
		}()
	}
	for c, a := range recs {
		for i := range a.recs {
			next <- ref{c, i}
		}
	}
	close(next)
	wg.Wait()
	for c, fs := range found {
		for _, f := range fs {
			cs[c].fail(f.seq, f.why)
		}
	}
}

// tag is a short answer string (an engine or a cache verdict) kept in
// a pointer-free record.
type tag [16]byte

func mkTag(s string) (t tag) {
	copy(t[:], s)
	return t
}

func (t tag) String() string { return string(bytes.TrimRight(t[:], "\x00")) }

// answerRec is what the checks after the timed phase need of one
// /v1/schedule or /v1/compare answer, in fixed size so that it can live
// in an arena: the load generator keeps no answer body.
type answerRec struct {
	seq, r, slot  int32
	cache, engine tag
	makespan      int64
	steps, hops   int64
	lowerBound    int64
	// A compare answer: the optimum, the number of runs, and each run by
	// its index in algs (present marks the ones answered).
	opt     int64
	nRuns   int32
	present [6]bool
	runs    [6]struct {
		makespan int64
		factor   float64
	}
}

// decodeAnswer decodes a schedule or compare answer body into its
// record.
func decodeAnswer(body []byte, compare bool, rec *answerRec) error {
	if compare {
		var resp serve.CompareResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		rec.opt, rec.nRuns = resp.Opt.Length, int32(len(resp.Runs))
		for i, a := range algs {
			if run, ok := resp.Runs[a]; ok {
				rec.present[i] = true
				rec.runs[i].makespan, rec.runs[i].factor = run.Makespan, run.Factor
			}
		}
		return nil
	}
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	rec.engine = mkTag(resp.Engine)
	rec.makespan, rec.steps, rec.hops, rec.lowerBound = resp.Makespan, resp.Steps, resp.JobHops, resp.LowerBound
	return nil
}

// schedule is the record as the schedule answer the checkers take.
func (rec *answerRec) schedule(alg string) serve.ScheduleResponse {
	return serve.ScheduleResponse{Algorithm: alg, Engine: rec.engine.String(), Makespan: rec.makespan,
		Steps: rec.steps, JobHops: rec.hops, LowerBound: rec.lowerBound}
}

// compare is the record as the compare answer the checkers take. A run
// under a name outside algs comes back as a run with makespan 0, so it
// still fails the checks.
func (rec *answerRec) compare() serve.CompareResponse {
	resp := serve.CompareResponse{Opt: serve.OptimalResponse{Length: rec.opt}, Runs: map[string]serve.CompareRun{}}
	for i, a := range algs {
		if rec.present[i] {
			resp.Runs[a] = serve.CompareRun{Makespan: rec.runs[i].makespan, Factor: rec.runs[i].factor}
		}
	}
	for i := int32(len(resp.Runs)); i < rec.nRuns; i++ {
		resp.Runs[fmt.Sprintf("unknown-%d", i)] = serve.CompareRun{}
	}
	return resp
}

// recordAnswer books a schedule or compare operation and, when it
// answered 200, keeps its record for the checks after the timed phase.
func recordAnswer(c *client, recs [nClients]*arena[answerRec], cls class, rep reply, r, slot int) {
	rec := answerRec{r: int32(r), slot: int32(slot), cache: mkTag(rep.cache)}
	why := ""
	ok := rep.err == nil && rep.status == http.StatusOK
	if ok {
		if err := decodeAnswer(rep.body, cls == clsCompare, &rec); err != nil {
			why = "decode: " + err.Error()
		}
	}
	seq := c.record(cls, rep, why)
	if seq < 0 || !ok || why != "" {
		return
	}
	rec.seq = int32(seq)
	if recs[c.id].add(rec) < 0 {
		c.full = true
	}
}

// timeIt returns how long f took.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// directTimes are the module calls the daemon made for a sample of
// operations, timed one by one in this process.
type directTimes struct {
	ops int // operations in the sample

	decode         time.Duration
	canonical      time.Duration // Canonical + Fingerprint
	sim            time.Duration
	simSteps       int64
	bigring        time.Duration // at the served worker count
	bigSeq, bigPar time.Duration // at Workers: 1 and Workers: GOMAXPROCS
	bigSteps       int64
	lbBest         time.Duration
	lbSparse       time.Duration
	opt            time.Duration
	flowCalls      int64
	onlineRun      time.Duration
	onlineAppend   time.Duration // Append + StepUntil/StepQuiescent
	onlineLB       time.Duration

	// Session appends by index: appends 1-10, 11-20, 21-30, 31-40.
	appendQ, lbQ [4]time.Duration
	appendQn     [4]int
}

// timeCanonical times canonicalizing and fingerprinting in, as the
// daemon does for every schedule and compare request, and returns the
// canonical form.
func (d *directTimes) timeCanonical(in instance.Instance) instance.Instance {
	var can instance.Instance
	d.canonical += timeIt(func() {
		can = in.Canonical()
		can.Fingerprint()
	})
	return can
}

// timeSim times one pool-engine run.
func (d *directTimes) timeSim(can instance.Instance, alg string) {
	spec, err := bucket.ByName(alg)
	if err != nil {
		panic(err)
	}
	var res sim.Result
	d.sim += timeIt(func() { res, _ = sim.Run(can, spec, sim.Options{}) })
	d.simSteps += res.Steps
}

// timeBigring times the big-ring run as served. On rings of at least
// ParallelMinM processors, where the served run is span-parallel, it
// also times both stepping modes for the per-step costs; below that the
// few dense steps of A/C and the ~m sparse steps of B would mix two
// regimes in one figure.
func (d *directTimes) timeBigring(can instance.Instance, alg string) {
	if can.M < bigring.ParallelMinM {
		d.bigring += timeIt(func() { runBigring(can, alg, 1) })
		return
	}
	var res sim.Result
	seq := timeIt(func() { res, _ = runBigring(can, alg, 1) })
	par := timeIt(func() { runBigring(can, alg, max(2, runtime.GOMAXPROCS(0))) })
	d.bigSeq += seq
	d.bigPar += par
	d.bigSteps += res.Steps
	if servedParallel(can.M) {
		d.bigring += par
	} else {
		d.bigring += seq
	}
}
