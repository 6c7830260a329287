package main

import (
	"fmt"
	"net/http"
	"time"

	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/serve"
)

// largeRings puts requests on both sides of both engine choices, all
// through /v1/schedule:
//
//   - dense 10^6-processor uniform rings (loads 0..18, under the default
//     10^7 work cap) with A1, C1, A2 and C2, routed automatically to the
//     span-parallel big-ring engine (B is left out: its wrap-around run
//     of about m steps would outlast the 30 s deadline);
//   - point+rand rings of m near 4096 with all six algorithms, which the
//     default threshold (100 000) routes to the pool engine;
//   - uniform rings of m = 16384 with all six algorithms and
//     engine "bigring", which run the sequential alive-list sweep since
//     m < ParallelMinM; their B runs take about m mostly idle steps.
//     A/C runs at this size are cheap, so a round carries them from
//     five more rings: that makes 100 operations in a 20 s run, and puts
//     two thirds of a round in one class, so p50_ms falls inside it (the
//     16384 sequential sweep with its decode and sparse bound) and
//     p90_ms inside the 10^6 class, never on a boundary between classes.
type largeRings struct {
	seed    int64
	slots   []largeSlot
	answers [nClients]*arena[answerRec]
}

type largeSlot struct {
	size   int // sizeHuge, sizeMid or sizeBig
	alg    string
	engine string // requested engine ("" = routed by size)
	want   string // engine the answer must report
}

const (
	sizeHuge = iota
	sizeMid
	sizeBig
)

func newLargeRings(seed int64) traffic {
	var slots []largeSlot
	for _, a := range []string{"A1", "C1", "A2", "C2"} {
		slots = append(slots, largeSlot{size: sizeHuge, alg: a, want: "bigring"})
	}
	for _, a := range algs {
		slots = append(slots, largeSlot{size: sizeMid, alg: a, want: "pool"})
	}
	for _, a := range algs {
		slots = append(slots, largeSlot{size: sizeBig, alg: a, engine: "bigring", want: "bigring"})
	}
	for i := 0; i < 5; i++ {
		for _, a := range []string{"A1", "C1", "A2", "C2"} {
			slots = append(slots, largeSlot{size: sizeBig, alg: a, engine: "bigring", want: "bigring"})
		}
	}
	// A fixed interleaving (stride 11, coprime with 36) spreads the heavy
	// requests through the round, so each client's cheap requests overlap
	// the other client's heavy ones in the same proportion every run.
	mixed := make([]largeSlot, len(slots))
	for i := range slots {
		mixed[i] = slots[(i*11)%len(slots)]
	}
	return &largeRings{seed: seed, slots: mixed}
}

// A client completes about 3 operations a second on a 2-CPU machine.
func (w *largeRings) capacity(dur time.Duration) int { return int(dur.Seconds()*500) + 256 }

func (w *largeRings) alloc(n int) (err error) {
	w.answers, err = arenas[answerRec](n)
	return err
}

func (w *largeRings) free() {
	for _, a := range w.answers {
		a.free()
	}
}

func (w *largeRings) roundLen() int { return len(w.slots) }

// instance generates the ring of item (r, slot).
func (w *largeRings) instance(r, slot int) instance.Instance {
	seed := opSeed(w.seed, r, slot)
	switch w.slots[slot].size {
	case sizeHuge:
		return genInstance(genUniform, 1_000_000, 18, seed)
	case sizeMid:
		return genInstance(genPointRand, 4096-int(uint64(seed)%128), 0, seed)
	default:
		return genInstance(genUniform, 16384, 100, seed)
	}
}

func (w *largeRings) body(r, slot int) []byte {
	s := w.slots[slot]
	return mustJSON(serve.ScheduleRequest{
		Instance:  w.instance(r, slot),
		Algorithm: s.alg,
		Options:   serve.RequestOptions{Engine: s.engine},
	})
}

// warm runs one C1 item of each size from a round no timed run uses.
func (w *largeRings) warm(cs []*client) error {
	seen := map[int]bool{}
	for slot, s := range w.slots {
		if s.alg == "C1" && !seen[s.size] {
			seen[s.size] = true
			w.item(cs[len(seen)%len(cs)], -1, slot)
		}
	}
	return nil
}

func (w *largeRings) item(c *client, r, slot int) {
	rep := c.call(http.MethodPost, "/v1/schedule", w.body(r, slot))
	recordAnswer(c, w.answers, clsSchedule, rep, r, slot)
}

// check compares every answer with bigring.Run on the same canonical
// instance in the other stepping mode: pool answers with the sequential
// sweep, sequential big-ring answers with the span kernels and parallel
// ones with the sequential sweep. The sweep and the span kernels are
// separate code.
func (w *largeRings) check(res *result) {
	checkRecs(res.clients, w.answers, func(a *answerRec) []failure {
		if err := w.checkOne(a); err != nil {
			return []failure{{int(a.seq), fmt.Sprintf("round %d slot %d: %v", a.r, a.slot, err)}}
		}
		return nil
	})
}

func (w *largeRings) checkOne(a *answerRec) error {
	s := w.slots[a.slot]
	resp := a.schedule(s.alg)
	if resp.Engine != s.want {
		return fmt.Errorf("engine %q, want %q", resp.Engine, s.want)
	}
	in := w.instance(int(a.r), int(a.slot))
	workers := 1
	if resp.Engine == "bigring" && !servedParallel(in.M) {
		workers = 2
	}
	want, err := runBigring(in.Canonical(), s.alg, workers)
	if err != nil {
		return err
	}
	if err := checkSameRun(resp, want); err != nil {
		return err
	}
	return checkBounds(resp.Makespan, resp.LowerBound, in.TotalWork(), in.M)
}

// direct times, for the first timed round, the decode and the calls the
// daemon makes: sim.Run and lb.Best on the pool engine, bigring.Run (at
// Workers: 1 and at GOMAXPROCS) and lb.BestSparse on the big-ring one.
func (w *largeRings) direct() directTimes {
	d := directTimes{ops: len(w.slots)}
	for slot, s := range w.slots {
		var req serve.ScheduleRequest
		d.decode += decodeLike(w.body(0, slot), &req)
		can := d.timeCanonical(req.Instance)
		if s.want == "pool" {
			d.timeSim(can, s.alg)
			d.lbBest += timeIt(func() { lb.Best(can) })
			continue
		}
		d.timeBigring(can, s.alg)
		d.lbSparse += timeIt(func() { lb.BestSparse(can) })
	}
	return d
}
