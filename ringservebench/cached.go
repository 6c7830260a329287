package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ringsched/internal/serve"
	"ringsched/internal/workload"
)

// cachedHits replays the zipf-skewed mix of Table 1 unit cases with
// m <= 100 that `ringserve -selftest` uses, across all six algorithms.
// Every request is a random rotation or reflection of its case, and the
// warm-up fills the cache, so every timed request is a hit: the run
// isolates decode, canonicalization, cache lookup, the write and the
// HTTP transport, and no engine runs.
type cachedHits struct {
	mix  []workload.Case
	pool []hitReq       // one round: the same requests every round
	ref  map[int][]byte // key -> the body the warm-up miss answered
}

type hitReq struct {
	key  int // case index * len(algs) + algorithm index
	body []byte
}

// hitPoolSize is the number of requests in a round.
const hitPoolSize = 2048

func newCachedHits(seed int64) traffic {
	w := &cachedHits{ref: map[int][]byte{}}
	for _, c := range workload.Suite() {
		if c.In.IsUnit() && c.In.M <= 100 {
			w.mix = append(w.mix, c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	// Rank-skewed popularity with the selftest's exponent 1.7: a hot
	// head over a long tail.
	zipf := rand.NewZipf(rng, 1.7, 1, uint64(len(w.mix)-1))
	for i := 0; i < hitPoolSize; i++ {
		ci, ai := int(zipf.Uint64()), rng.Intn(len(algs))
		in := dihedralCopy(w.mix[ci].In, rng)
		w.pool = append(w.pool, hitReq{
			key:  ci*len(algs) + ai,
			body: mustJSON(serve.ScheduleRequest{Instance: in, Algorithm: algs[ai]}),
		})
	}
	return w
}

// A client completes about 11 000 hits a second on a 2-CPU machine.
func (w *cachedHits) capacity(dur time.Duration) int { return int(dur.Seconds()*100_000) + 1024 }

// alloc keeps nothing per operation: each hit is checked on the spot.
func (w *cachedHits) alloc(int) error { return nil }

func (w *cachedHits) free() {}

func (w *cachedHits) roundLen() int { return len(w.pool) }

// warm sends every (case, algorithm) once, as the case itself rather
// than a dihedral copy, filling the cache. It does the same work for
// every seed, since it does not depend on which keys the round draws.
func (w *cachedHits) warm(cs []*client) error {
	for ci, c := range w.mix {
		for ai, a := range algs {
			key := ci*len(algs) + ai
			cl := cs[key%len(cs)]
			rep := cl.call(http.MethodPost, "/v1/schedule", mustJSON(serve.ScheduleRequest{Instance: c.In, Algorithm: a}))
			if rep.err != nil || rep.status != http.StatusOK {
				return fmt.Errorf("%s %s: %s", c.ID, a, rep)
			}
			w.ref[key] = rep.body
		}
	}
	return nil
}

// item sends one pooled request. The answer must be a hit and, byte for
// byte, the warm-up's answer for its (case, algorithm): a memory compare
// is the only check made inside the timed phase, since keeping every
// body for later would grow the load generator's memory with the run.
func (w *cachedHits) item(c *client, r, slot int) {
	req := w.pool[slot]
	rep := c.call(http.MethodPost, "/v1/schedule", req.body)
	why := ""
	if rep.err == nil && rep.status == http.StatusOK {
		if rep.cache != "hit" {
			why = fmt.Sprintf("cache verdict %q, want hit", rep.cache)
		} else if err := checkSameBody(w.ref[req.key], rep.body); err != nil {
			why = err.Error()
		}
	}
	c.record(clsSchedule, rep, why)
}

// check verifies each warm-up answer against bigring.Run on the same
// canonical instance and against the lower bounds; every timed hit on a
// wrong answer fails with it.
func (w *cachedHits) check(res *result) {
	bad := map[int]string{}
	for key, body := range w.ref {
		var resp serve.ScheduleResponse
		in := w.mix[key/len(algs)].In
		if err := json.Unmarshal(body, &resp); err != nil {
			bad[key] = "decode: " + err.Error()
			continue
		}
		want, err := runBigring(in.Canonical(), algs[key%len(algs)], 1)
		if err == nil {
			err = checkSameRun(resp, want)
		}
		if err == nil {
			err = checkBounds(resp.Makespan, resp.LowerBound, in.TotalWork(), in.M)
		}
		if err != nil {
			bad[key] = fmt.Sprintf("%s %s: %v", w.mix[key/len(algs)].ID, algs[key%len(algs)], err)
		}
	}
	if len(bad) == 0 {
		return
	}
	for _, c := range res.clients {
		for seq, o := range c.ops.recs {
			if why, ok := bad[w.pool[int(o.item)%len(w.pool)].key]; ok {
				c.fail(seq, why)
			}
		}
	}
}

// direct times decoding and canonicalizing the round's requests; hits
// call no engine, bound or solver.
func (w *cachedHits) direct() directTimes {
	d := directTimes{ops: len(w.pool)}
	for _, req := range w.pool {
		var sr serve.ScheduleRequest
		d.decode += decodeLike(req.body, &sr)
		d.timeCanonical(sr.Instance)
	}
	return d
}
