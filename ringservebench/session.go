package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ringsched/internal/instance"
	"ringsched/internal/online"
	"ringsched/internal/serve"
	"ringsched/internal/workload"
)

// sessionStream runs streaming sessions back to back on each client.
// A session is created on an m = 256 ring seeded with a point+rand load,
// then gets sessionWaves waves of waveBatches arrival batches at rising
// release times, each wave sent with stepTo, a GET after every tenth
// wave, and a final DELETE. This path writes mutable state and uses the
// resumable online.Engine, the session lock and two length-m arrays
// encoded per append; the per-append Engine.LowerBound rescans the whole
// history, so sessions are long enough for append latency to grow.
type sessionStream struct {
	seed     int64
	sessions [nClients]*arena[sessionRecord]
}

const (
	sessionM     = 256
	sessionWaves = 40
	waveBatches  = 8
	// waveGap is the release-time span of one wave; a wave's batches
	// release within it and its append steps to its end, so the next
	// wave's releases are never before the engine clock.
	waveGap = 4
	// sessionRound is the sessions in a round, one per client.
	sessionRound = 2
	// sessionGets is the GETs of a session, one after every tenth wave.
	sessionGets = sessionWaves / 10
	// sessionOps is the operations of a session: create, the appends,
	// the GETs and the delete.
	sessionOps = 2 + sessionWaves + sessionGets
)

// sessionRecord is what one session answered, in fixed size so that it
// can live in an arena: the load generator keeps no answer body.
type sessionRecord struct {
	r, slot    int32
	appendSeqs [sessionWaves]int32
	steps      [sessionWaves]sessionStep
	gets       [sessionGets]sessionGet
	deleteSeq  int32
	terminal   terminalRec
}

// sessionGet is what a GET after wave 10i+9 answered.
type sessionGet struct {
	seq                     int32
	now, processed, appends int64
}

// terminalRec is the terminal snapshot the DELETE answered.
type terminalRec struct {
	ok                                                   bool // the DELETE answered one
	terminal, quiescent                                  bool
	makespan, maxFlow, steps, hops, migrated, lowerBound int64
	processed                                            [sessionM]int64
}

func (t *terminalRec) set(snap serve.SessionSnapshot) {
	t.ok, t.terminal, t.quiescent = true, snap.Terminal, snap.Quiescent
	t.makespan, t.maxFlow, t.steps, t.hops, t.migrated, t.lowerBound =
		snap.Makespan, snap.MaxFlowTime, snap.Steps, snap.JobHops, snap.Migrated, snap.LowerBound
	copy(t.processed[:], snap.Processed)
}

// snapshot is the record as the snapshot the checkers take.
func (t *terminalRec) snapshot() serve.SessionSnapshot {
	return serve.SessionSnapshot{Terminal: t.terminal, Quiescent: t.quiescent, Makespan: t.makespan,
		MaxFlowTime: t.maxFlow, Steps: t.steps, JobHops: t.hops, Migrated: t.migrated,
		LowerBound: t.lowerBound, Processed: t.processed[:]}
}

// sessionPlan is the generated input of one session.
type sessionPlan struct {
	seed  instance.Instance
	waves [][]serve.ArrivalBatch
}

func newSessionStream(seed int64) traffic { return &sessionStream{seed: seed} }

// A client completes about 0.4 sessions a second on a 2-CPU machine.
func (w *sessionStream) capacity(dur time.Duration) int {
	return (int(dur.Seconds()*250) + 16) * sessionOps
}

func (w *sessionStream) alloc(n int) (err error) {
	w.sessions, err = arenas[sessionRecord](n / sessionOps)
	return err
}

func (w *sessionStream) free() {
	for _, a := range w.sessions {
		a.free()
	}
}

func (w *sessionStream) roundLen() int { return sessionRound }

func (w *sessionStream) plan(r, slot int, waves int) sessionPlan {
	seed := opSeed(w.seed, r, slot)
	p := sessionPlan{seed: workload.PointPlusRandom(sessionM, workload.Big, seed)}
	rng := rand.New(rand.NewSource(seed))
	for wv := 0; wv < waves; wv++ {
		start := int64(wv+1) * waveGap
		wave := make([]serve.ArrivalBatch, waveBatches)
		for k := range wave {
			wave[k] = serve.ArrivalBatch{T: start + rng.Int63n(waveGap), Proc: rng.Intn(sessionM), Count: 1 + rng.Int63n(50)}
		}
		p.waves = append(p.waves, wave)
	}
	return p
}

// stepTo is where the append of wave wv steps the engine to.
func stepTo(wv int) int64 { return int64(wv+2) * waveGap }

// warm runs one short session per client from a round no timed run uses.
func (w *sessionStream) warm(cs []*client) error {
	for i, c := range cs {
		w.session(c, -1, i, 5)
	}
	return nil
}

func (w *sessionStream) item(c *client, r, slot int) { w.session(c, r, slot, sessionWaves) }

func (w *sessionStream) session(c *client, r, slot, waves int) {
	p := w.plan(r, slot, waves)
	rec := sessionRecord{r: int32(r), slot: int32(slot)}

	rep := c.call(http.MethodPost, "/v1/session", mustJSON(serve.SessionCreateRequest{Instance: &p.seed}))
	var created serve.SessionCreateResponse
	c.record(clsCreate, rep, decodeOK(rep, &created))
	// A failed create leaves the ID empty: the session's remaining
	// operations are still attempted, and fail, so every round attempts
	// the same operations.
	path := "/v1/session/" + created.ID
	for wv, wave := range p.waves {
		rep := c.call(http.MethodPost, path+"/arrivals", mustJSON(serve.SessionArrivalsRequest{Arrivals: wave, StepTo: stepTo(wv)}))
		var resp serve.SessionArrivalsResponse
		rec.appendSeqs[wv] = int32(c.record(clsAppend, rep, decodeOK(rep, &resp)))
		rec.steps[wv] = sessionStep{now: resp.Now, processed: sum(resp.Processed)}
		if (wv+1)%10 == 0 {
			rep := c.call(http.MethodGet, path, nil)
			var snap serve.SessionSnapshot
			seq := c.record(clsGet, rep, decodeOK(rep, &snap))
			rec.gets[wv/10] = sessionGet{seq: int32(seq), now: snap.Now, processed: sum(snap.Processed), appends: snap.Appends}
		}
	}
	rep = c.call(http.MethodDelete, path, nil)
	var snap serve.SessionSnapshot
	why := decodeOK(rep, &snap)
	if rep.status == http.StatusOK && why == "" {
		if len(snap.Processed) != sessionM {
			why = fmt.Sprintf("terminal snapshot has %d processors, want %d", len(snap.Processed), sessionM)
		} else {
			rec.terminal.set(snap)
		}
	}
	rec.deleteSeq = int32(c.record(clsDelete, rep, why))
	if c.warming || c.full {
		return
	}
	if w.sessions[c.id].add(rec) < 0 {
		c.full = true
	}
}

// decodeOK decodes a 200 answer's body into v and returns why it could
// not, or "" (also for any other status, which fails on its own).
func decodeOK(rep reply, v any) string {
	if rep.err != nil || rep.status != http.StatusOK {
		return ""
	}
	if err := json.Unmarshal(rep.body, v); err != nil {
		return "decode: " + err.Error()
	}
	return ""
}

// check requires, per session: the clock and the processed total never
// decrease across appends; each GET matches the append before it; the
// terminal snapshot processed exactly the seed plus all appended work,
// respects its lowerBound, and equals a one-shot online.Run on the
// concatenated arrivals (the engine's incremental-equals-one-shot
// guarantee).
func (w *sessionStream) check(res *result) {
	checkRecs(res.clients, w.sessions, func(s *sessionRecord) []failure {
		var fs []failure
		fail := func(seq int32, err error) {
			fs = append(fs, failure{int(seq), fmt.Sprintf("session round %d slot %d: %v", s.r, s.slot, err)})
		}
		if k, err := checkSessionSteps(s.steps[:]); err != nil {
			fail(s.appendSeqs[k], err)
		}
		for i, g := range s.gets {
			wv := 10*i + 9
			st := s.steps[wv]
			if g.now != st.now || g.processed != st.processed || g.appends != int64(wv+1) {
				fail(g.seq, fmt.Errorf("GET after wave %d: now %d processed %d appends %d, the append answered now %d processed %d",
					wv, g.now, g.processed, g.appends, st.now, st.processed))
			}
		}
		if !s.terminal.ok {
			return fs
		}
		p := w.plan(int(s.r), int(s.slot), sessionWaves)
		oin := onlineInstance(p.seed, flatten(p.waves))
		oneShot, err := online.Run(oin, online.Params{})
		if err == nil {
			err = checkTerminal(s.terminal.snapshot(), oin.TotalWork(), oneShot)
		}
		if err != nil {
			fail(s.deleteSeq, err)
		}
		return fs
	})
}

func flatten(waves [][]serve.ArrivalBatch) []serve.ArrivalBatch {
	var all []serve.ArrivalBatch
	for _, wave := range waves {
		all = append(all, wave...)
	}
	return all
}

// direct replays the first timed round's sessions on an online.Engine,
// timing the decode of every body, each append's Append plus StepUntil,
// and each Engine.LowerBound, by append index.
func (w *sessionStream) direct() directTimes {
	d := directTimes{ops: sessionRound * sessionOps}
	for slot := 0; slot < sessionRound; slot++ {
		p := w.plan(0, slot, sessionWaves)
		var cr serve.SessionCreateRequest
		d.decode += decodeLike(mustJSON(serve.SessionCreateRequest{Instance: &p.seed}), &cr)
		eng, err := online.NewEngine(sessionM, online.Params{})
		if err != nil {
			panic(err)
		}
		eng.Append(onlineInstance(p.seed, nil).Batches...)
		for wv, wave := range p.waves {
			var ar serve.SessionArrivalsRequest
			d.decode += decodeLike(mustJSON(serve.SessionArrivalsRequest{Arrivals: wave, StepTo: stepTo(wv)}), &ar)
			batches := make([]online.Batch, len(ar.Arrivals))
			for i, a := range ar.Arrivals {
				batches[i] = online.Batch{Time: a.T, Proc: a.Proc, Count: a.Count}
			}
			app := timeIt(func() {
				if err := eng.Append(batches...); err != nil {
					panic(err)
				}
				eng.StepUntil(context.Background(), ar.StepTo)
			})
			lbt := timeIt(func() { eng.LowerBound() })
			q := min(wv/10, 3)
			d.onlineAppend += app
			d.onlineLB += lbt
			d.appendQ[q] += app
			d.lbQ[q] += lbt
			d.appendQn[q]++
		}
		d.onlineAppend += timeIt(func() { eng.StepQuiescent(context.Background()) })
		d.onlineLB += timeIt(func() { eng.LowerBound() })
	}
	return d
}
