package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"ringsched/internal/ring"
)

// ErrStaleRelease rejects an Append whose batch is released before the
// engine's current time: the steps that would have seen it have already
// executed, so accepting it would break the incremental ≡ one-shot
// contract. Callers that want best-effort semantics clamp the release
// to Now() themselves (the serving layer exposes that as an option).
var ErrStaleRelease = errors.New("online: release before engine time")

// Engine is the resumable form of the online diffusion algorithm: the
// same simulation Run performs, cut open so work can be appended while
// it is underway. The contract is bit-identity with the one-shot run —
// for any split of an arrival sequence into waves,
//
//	e, _ := NewEngine(m, p)
//	for _, wave := range waves { e.Append(wave...); e.StepQuiescent(nil) }
//	e.Snapshot().Result  ==  the Result of Run(NewInstance(m, allBatches), p)
//
// field for field (makespan, flow time, hops, steps, per-processor
// Processed, migrated count). Stepping may also pause anywhere via
// StepUntil; appended batches only need release times at or after Now().
//
// An Engine is not safe for concurrent use; callers serialize access
// (the serving layer holds a per-session mutex).
type Engine struct {
	m   int
	p   Params
	top ring.Topology

	// Simulation state, identical to the locals of the historical
	// one-shot loop (see stepOnce).
	pool               []int64
	passed             []int64
	remainingByRelease map[int64]int64
	poolByRelease      []map[int64]int64
	buckets            []bucket
	res                Result

	// pending[head:] holds appended-but-unreleased batches in the exact
	// order the one-shot run would see them: stable-sorted by release
	// time, earlier appends before later ones on ties.
	pending []Batch
	head    int
	// history is every batch ever appended (append order; each append
	// sorted by release), kept for the release-aware lower bound.
	history []Batch

	total      int64 // jobs appended so far
	maxRelease int64
	maxSteps   int64
	released   int   // batches released into the ring so far
	now        int64 // index of the next step to execute
	// done mirrors the one-shot loop's termination: the trailing step
	// that observed "nothing pending, nothing moving, nobody busy" has
	// executed. Appending clears it.
	done bool
	err  error // sticky ErrNotQuiescent
}

// NewEngine returns an empty resumable engine over a ring of m
// processors. Work arrives via Append.
func NewEngine(m int, p Params) (*Engine, error) {
	if m < 1 {
		return nil, fmt.Errorf("online: ring size %d", m)
	}
	e := &Engine{
		m:                  m,
		p:                  p,
		top:                ring.New(m),
		pool:               make([]int64, m),
		passed:             make([]int64, m),
		remainingByRelease: map[int64]int64{},
		poolByRelease:      make([]map[int64]int64, m),
		res:                Result{Processed: make([]int64, m)},
	}
	for i := range e.poolByRelease {
		e.poolByRelease[i] = map[int64]int64{}
	}
	return e, nil
}

// M returns the ring size.
func (e *Engine) M() int { return e.m }

// Now returns the engine time: the index of the next step to execute.
// All steps before it have run; appended batches must not be released
// before it.
func (e *Engine) Now() int64 { return e.now }

// Err returns the sticky terminal error (ErrNotQuiescent), if any.
func (e *Engine) Err() error { return e.err }

// Quiescent reports whether every appended job has been processed and
// nothing is in flight or pending — the state in which the one-shot run
// would have returned.
func (e *Engine) Quiescent() bool {
	return e.total == 0 || (e.done && e.head == len(e.pending))
}

// TotalWork returns the number of jobs appended so far.
func (e *Engine) TotalWork() int64 { return e.total }

// Append adds arrival batches to the engine. Every batch must satisfy
// the Instance invariants (non-negative time and count, processor in
// range) and be released at or after Now() — earlier releases fail with
// ErrStaleRelease and leave the engine unchanged. Batches are merged so
// the release order matches what NewInstance would produce for the full
// concatenated sequence (stable by time, append order on ties), which
// is what makes incremental stepping bit-identical to a one-shot run.
func (e *Engine) Append(batches ...Batch) error {
	if e.err != nil {
		return e.err
	}
	for _, b := range batches {
		if b.Time < 0 || b.Count < 0 || b.Proc < 0 || b.Proc >= e.m {
			return fmt.Errorf("online: bad batch %+v", b)
		}
		if b.Time < e.now {
			return fmt.Errorf("%w: batch %+v at engine time %d", ErrStaleRelease, b, e.now)
		}
	}
	if len(batches) == 0 {
		return nil
	}
	bs := append([]Batch(nil), batches...)
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].Time < bs[j].Time })

	// Merge with the unreleased tail, existing batches first on equal
	// times: exactly the relative order a stable sort of the full
	// concatenation yields.
	old := e.pending[e.head:]
	merged := make([]Batch, 0, len(old)+len(bs))
	i, j := 0, 0
	for i < len(old) && j < len(bs) {
		if old[i].Time <= bs[j].Time {
			merged = append(merged, old[i])
			i++
		} else {
			merged = append(merged, bs[j])
			j++
		}
	}
	merged = append(merged, old[i:]...)
	merged = append(merged, bs[j:]...)
	e.pending, e.head = merged, 0

	for _, b := range bs {
		e.total += b.Count
		if b.Time > e.maxRelease {
			e.maxRelease = b.Time
		}
		// Safe to accumulate incrementally: jobs released at time t are
		// only processed at steps >= t >= now, i.e. after this append,
		// so the per-release counter is complete before any decrement.
		e.remainingByRelease[b.Time] += b.Count
	}
	e.history = append(e.history, bs...)
	e.maxSteps = 8*(e.total+int64(e.m)) + 4*e.maxRelease + 64
	e.done = false
	return nil
}

// StepQuiescent runs the simulation until every appended job has been
// processed and nothing is in flight (the point where the one-shot run
// returns). A nil ctx is allowed; with a ctx, cancellation returns the
// context error and leaves the engine paused but resumable.
func (e *Engine) StepQuiescent(ctx context.Context) error {
	return e.run(ctx, -1)
}

// StepUntil advances the simulation through the start of step t: every
// step with index < t has executed when it returns (idle stretches are
// fast-forwarded). Stepping stops early at quiescence. t at or before
// Now() is a no-op.
func (e *Engine) StepUntil(ctx context.Context, t int64) error {
	if t < 0 {
		return fmt.Errorf("online: negative step target %d", t)
	}
	return e.run(ctx, t)
}

// run is the shared stepping driver; limit < 0 means "to quiescence".
func (e *Engine) run(ctx context.Context, limit int64) error {
	if e.err != nil {
		return e.err
	}
	for {
		// Mirror the one-shot run's shortcut: with no work appended at
		// all there is nothing to simulate and time does not advance.
		if e.total == 0 || e.done {
			return nil
		}
		if limit >= 0 && e.now >= limit {
			return nil
		}
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("online: %w at step %d", cerr, e.now)
			}
		}
		// Idle fast-forward: nothing queued anywhere and nothing in
		// flight, so every step before the next release is a no-op the
		// one-shot run would burn one iteration each on. Jump straight
		// there, accounting the skipped steps exactly as the loop would
		// (Steps advances every iteration, busy or not).
		if len(e.buckets) == 0 && e.head < len(e.pending) && e.pending[e.head].Time > e.now && e.idle() {
			jump := e.pending[e.head].Time
			if limit >= 0 && jump > limit {
				jump = limit
			}
			e.now = jump
			e.res.Steps = jump
			continue
		}
		if err := e.stepOnce(); err != nil {
			return err
		}
	}
}

// idle reports that no processor has queued work.
func (e *Engine) idle() bool {
	for _, w := range e.pool {
		if w > 0 {
			return false
		}
	}
	return true
}

func (e *Engine) target(v int) int64 {
	return int64(e.p.c() * math.Sqrt(float64(e.passed[v])))
}

func (e *Engine) deposit(v int, w, released int64) {
	e.pool[v] += w
	e.poolByRelease[v][released] += w
}

// processOne removes the oldest-release unit from v's pool and returns
// its release time.
func (e *Engine) processOne(v int) int64 {
	var oldest int64 = math.MaxInt64
	for r, c := range e.poolByRelease[v] {
		if c > 0 && r < oldest {
			oldest = r
		}
	}
	e.poolByRelease[v][oldest]--
	if e.poolByRelease[v][oldest] == 0 {
		delete(e.poolByRelease[v], oldest)
	}
	e.pool[v]--
	return oldest
}

// stepOnce executes exactly one simulation step — the body of the
// historical one-shot loop, verbatim in effect — and advances Now.
func (e *Engine) stepOnce() error {
	step := e.now
	if step > e.maxSteps {
		e.err = fmt.Errorf("%w within %d steps", ErrNotQuiescent, e.maxSteps)
		return e.err
	}
	m := e.m

	// 1. Releases at the start of the step: arrivals raise the local
	// passed count; the queue keeps up to target, the excess ships —
	// capped by the migration budget when one is set.
	for e.head < len(e.pending) && e.pending[e.head].Time == step {
		b := e.pending[e.head]
		e.head++
		e.released++
		if b.Count == 0 {
			continue
		}
		v := b.Proc
		e.passed[v] += b.Count
		keep := min64(b.Count, max64(0, e.target(v)-e.pool[v]))
		e.deposit(v, keep, b.Time)
		rest := b.Count - keep
		if rest == 0 {
			continue
		}
		if m == 1 {
			e.deposit(v, rest, b.Time)
			continue
		}
		if bud := e.p.MigrationBudget; bud > 0 && rest > bud {
			// Bounded migration (Albers–Hellwig): at most bud jobs of
			// this batch leave their home processor; the overflow stays
			// queued locally even though it exceeds the A-rule target.
			e.deposit(v, rest-bud, b.Time)
			rest = bud
		}
		e.res.Migrated += rest
		if e.p.Bidirectional {
			cw := (rest + 1) / 2
			if cw > 0 {
				e.buckets = append(e.buckets, bucket{pos: v, dir: +1, content: cw, released: b.Time})
			}
			if ccw := rest - cw; ccw > 0 {
				e.buckets = append(e.buckets, bucket{pos: v, dir: -1, content: ccw, released: b.Time})
			}
		} else {
			e.buckets = append(e.buckets, bucket{pos: v, dir: +1, content: rest, released: b.Time})
		}
	}

	// 2. Buckets advance one hop and drop by the A rule.
	for i := range e.buckets {
		b := &e.buckets[i]
		if b.content == 0 {
			continue
		}
		b.pos = e.top.Wrap(b.pos + b.dir)
		b.hops++
		e.res.JobHops += b.content
		if !b.balance && b.hops >= m {
			b.balance = true
			b.per = (b.content + int64(m) - 1) / int64(m)
		}
		v := b.pos
		e.passed[v] += b.content
		var d int64
		if b.balance {
			d = min64(b.content, b.per)
		} else {
			d = min64(b.content, max64(0, e.target(v)-e.pool[v]))
		}
		if d > 0 {
			e.deposit(v, d, b.released)
			b.content -= d
		}
	}

	// 3. Processing (oldest release first per processor).
	busy := false
	for v := 0; v < m; v++ {
		if e.pool[v] > 0 {
			r := e.processOne(v)
			e.res.Processed[v]++
			e.res.Makespan = step + 1
			busy = true
			e.remainingByRelease[r]--
			if e.remainingByRelease[r] == 0 {
				if ft := step + 1 - r; ft > e.res.MaxFlowTime {
					e.res.MaxFlowTime = ft
				}
			}
		}
	}
	e.res.Steps = step + 1

	// 4. Compact (order-preserving) and test quiescence: all released,
	// nothing moving, nothing queued.
	alive := e.buckets[:0]
	for _, b := range e.buckets {
		if b.content > 0 {
			alive = append(alive, b)
		}
	}
	e.buckets = alive
	if e.head == len(e.pending) && len(e.buckets) == 0 && !busy {
		e.done = true
	}
	e.now = step + 1
	return nil
}

// Snapshot is a point-in-time digest of an Engine: the cumulative
// Result so far (all fields monotone under further stepping) plus the
// engine clock and arrival bookkeeping.
type Snapshot struct {
	Result
	// Now is the engine time: the next step to execute.
	Now int64
	// Quiescent reports that every appended job has completed.
	Quiescent bool
	// Released and Pending count arrival batches released into the ring
	// so far and appended but not yet released.
	Released int
	Pending  int
	// TotalWork is the number of jobs appended so far.
	TotalWork int64
}

// Snapshot returns a copy of the engine's cumulative result and clock;
// the Processed slice is cloned, so the snapshot is stable under
// further stepping.
func (e *Engine) Snapshot() Snapshot {
	res := e.res
	res.Processed = append([]int64(nil), e.res.Processed...)
	return Snapshot{
		Result:    res,
		Now:       e.now,
		Quiescent: e.Quiescent(),
		Released:  e.released,
		Pending:   len(e.pending) - e.head,
		TotalWork: e.total,
	}
}

// LowerBound certifies a release-aware lower bound on the clairvoyant
// optimum for everything appended so far (see LowerBound on Instance).
func (e *Engine) LowerBound() int64 {
	return LowerBound(Instance{M: e.m, Batches: e.history})
}
