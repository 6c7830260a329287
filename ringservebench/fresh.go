package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/online"
	"ringsched/internal/opt"
	"ringsched/internal/serve"
)

// freshSmall sends only never-seen Table 1 instances at m from 100 to
// 1000, so every request misses and most server time is the pool engine.
// A round is 54 /v1/schedule A1..C2 runs (3 sizes x 3 generators x 6
// algorithms), 9 one-shot "online" runs with arrivals (3 sizes x 3
// generators) and 6 /v1/compare calls at m <= 100 (the exact solver plus
// six runs). The slowest tenth of a round is then one class, the B runs
// and online runs at m = 1000 (13% of it), so p90_ms falls inside it.
type freshSmall struct {
	seed    int64
	slots   []freshSlot
	answers [nClients]*arena[answerRec]
}

type freshSlot struct {
	kind class // clsSchedule or clsCompare
	on   bool  // an "online" schedule run with arrivals
	m    int
	gen  int
	alg  string
}

func newFreshSmall(seed int64) traffic {
	var slots []freshSlot
	for _, m := range []int{100, 316, 1000} {
		for gen := range genNames {
			for _, a := range algs {
				slots = append(slots, freshSlot{kind: clsSchedule, m: m, gen: gen, alg: a})
			}
			slots = append(slots, freshSlot{kind: clsSchedule, on: true, m: m, gen: gen, alg: "online"})
		}
	}
	for _, m := range []int{64, 100} {
		for gen := range genNames {
			slots = append(slots, freshSlot{kind: clsCompare, m: m, gen: gen})
		}
	}
	// A fixed interleaving (stride 37, coprime with 69) mixes sizes and
	// kinds through the round the same way in every run.
	mixed := make([]freshSlot, len(slots))
	for i := range slots {
		mixed[i] = slots[(i*37)%len(slots)]
	}
	return &freshSmall{seed: seed, slots: mixed}
}

// A client completes about 25 operations a second on a 2-CPU machine.
func (w *freshSmall) capacity(dur time.Duration) int { return int(dur.Seconds()*2000) + 1024 }

func (w *freshSmall) alloc(n int) (err error) {
	w.answers, err = arenas[answerRec](n)
	return err
}

func (w *freshSmall) free() {
	for _, a := range w.answers {
		a.free()
	}
}

func (w *freshSmall) roundLen() int { return len(w.slots) }

// request generates item (r, slot): its endpoint, body and instance, and
// for online runs the arrivals.
func (w *freshSmall) request(r, slot int) (path string, body []byte, in instance.Instance, arr []serve.ArrivalBatch) {
	s := w.slots[slot]
	seed := opSeed(w.seed, r, slot)
	in = genInstance(s.gen, s.m, 100, seed)
	if s.kind == clsCompare {
		return "/v1/compare", mustJSON(serve.CompareRequest{Instance: in}), in, nil
	}
	if s.on {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 12; k++ {
			arr = append(arr, serve.ArrivalBatch{T: 1 + rng.Int63n(64), Proc: rng.Intn(s.m), Count: 1 + rng.Int63n(200)})
		}
	}
	return "/v1/schedule", mustJSON(serve.ScheduleRequest{Instance: in, Algorithm: s.alg, Arrivals: arr}), in, arr
}

// warm runs one item of every kind and size from a round no timed run
// uses.
func (w *freshSmall) warm(cs []*client) error {
	for slot, s := range w.slots {
		if s.alg == "C1" || s.on || s.kind == clsCompare {
			w.item(cs[slot%len(cs)], -1, slot)
		}
	}
	return nil
}

func (w *freshSmall) item(c *client, r, slot int) {
	path, body, _, _ := w.request(r, slot)
	rep := c.call(http.MethodPost, path, body)
	recordAnswer(c, w.answers, w.slots[slot].kind, rep, r, slot)
}

// check regenerates each answered item and checks it: schedule answers
// against bigring.Run (makespan, steps and hops) and the lower bounds,
// compare answers against lb.Best, online answers against their
// release-aware lower bound. Every answer must be a miss.
func (w *freshSmall) check(res *result) {
	checkRecs(res.clients, w.answers, func(a *answerRec) []failure {
		if err := w.checkOne(a); err != nil {
			return []failure{{int(a.seq), fmt.Sprintf("round %d slot %d: %v", a.r, a.slot, err)}}
		}
		return nil
	})
}

func (w *freshSmall) checkOne(a *answerRec) error {
	if v := a.cache.String(); v != "miss" {
		return fmt.Errorf("cache verdict %q on a never-seen instance", v)
	}
	s := w.slots[a.slot]
	_, _, in, arr := w.request(int(a.r), int(a.slot))
	if s.kind == clsCompare {
		return checkCompare(a.compare(), lb.Best(in.Canonical()), len(algs))
	}
	resp := a.schedule(s.alg)
	if s.on {
		work := in.TotalWork()
		for _, b := range arr {
			work += b.Count
		}
		return checkBounds(resp.Makespan, resp.LowerBound, work, in.M)
	}
	if resp.Engine != "pool" {
		return fmt.Errorf("engine %q, want pool", resp.Engine)
	}
	want, err := runBigring(in.Canonical(), s.alg, 1)
	if err != nil {
		return err
	}
	if err := checkSameRun(resp, want); err != nil {
		return err
	}
	return checkBounds(resp.Makespan, resp.LowerBound, in.TotalWork(), in.M)
}

// direct times, for the first timed round, the decode and the calls the
// daemon makes on a miss: sim.Run and lb.Best for a schedule run,
// opt.Uncapacitated and six sim.Run for a compare, online.Run and
// online.LowerBound for an online run.
func (w *freshSmall) direct() directTimes {
	d := directTimes{ops: len(w.slots)}
	for slot, s := range w.slots {
		_, body, in, arr := w.request(0, slot)
		var req any = &serve.ScheduleRequest{}
		if s.kind == clsCompare {
			req = &serve.CompareRequest{}
		}
		d.decode += decodeLike(body, req)
		can := d.timeCanonical(in)
		switch {
		case s.kind == clsCompare:
			var o opt.Result
			d.opt += timeIt(func() { o = opt.Uncapacitated(can, opt.Limits{}) })
			d.flowCalls += int64(o.FlowCalls)
			for _, alg := range algs {
				d.timeSim(can, alg)
			}
		case s.on:
			oin := onlineInstance(in, arr)
			d.onlineRun += timeIt(func() { online.Run(oin, online.Params{}) })
			d.onlineLB += timeIt(func() { online.LowerBound(oin) })
		default:
			d.timeSim(can, s.alg)
			d.lbBest += timeIt(func() { lb.Best(can) })
		}
	}
	return d
}

// onlineInstance is the online model's form of a static instance plus
// arrival batches, as the daemon builds it.
func onlineInstance(in instance.Instance, arr []serve.ArrivalBatch) online.Instance {
	var batches []online.Batch
	for i, n := range in.Unit {
		if n > 0 {
			batches = append(batches, online.Batch{Time: 0, Proc: i, Count: n})
		}
	}
	for _, a := range arr {
		batches = append(batches, online.Batch{Time: a.T, Proc: a.Proc, Count: a.Count})
	}
	oin, err := online.NewInstance(in.M, batches)
	if err != nil {
		panic(err) // generated arrivals are valid by construction
	}
	return oin
}
