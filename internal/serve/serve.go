// Package serve is the scheduling-as-a-service layer: a long-running
// HTTP/JSON daemon exposing the ring model behind four endpoints —
// POST /v1/schedule (any §6/§7/online algorithm), POST /v1/optimal
// (the exact solver under limits), POST /v1/compare (algorithms scored
// against the optimum) and GET /v1/healthz, /v1/statusz.
//
// The hot path exploits the model's dihedral symmetry: every incoming
// instance is canonicalized (rotation/reflection-minimal relabeling,
// see instance.Canonical) before compute, and results are cached under
// the canonical fingerprint. Two requests for the same ring up to
// rotation or reflection therefore share one cache entry and receive
// byte-identical response bodies; only the X-Ringserve-Cache header
// (hit|miss) differs. Compute runs on a bounded worker pool with
// non-blocking admission — a full queue answers 429 + Retry-After
// instead of queueing unboundedly — per-request deadlines, and panic
// isolation, and the daemon drains gracefully on context cancellation.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ringsched/internal/bigring"
	"ringsched/internal/bucket"
	"ringsched/internal/capring"
	"ringsched/internal/dist"
	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/metrics"
	"ringsched/internal/online"
	"ringsched/internal/opt"
	"ringsched/internal/sim"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers is the compute pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds queued-but-unstarted requests; 0 means
	// 4×Workers. A full queue sheds load with 429 + Retry-After.
	QueueDepth int
	// CacheEntries is the result cache capacity; 0 means 4096.
	CacheEntries int
	// CacheShards is the cache's lock-sharding factor; 0 means 16.
	CacheShards int
	// RequestTimeout caps any single request's compute time; 0 means
	// 30s. Per-request timeoutMs values may shorten it, never extend.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown's wait for in-flight
	// requests; 0 means 30s.
	DrainTimeout time.Duration
	// MaxM caps admissible ring sizes; 0 means 100 000.
	MaxM int
	// MaxTotalWork caps admissible total work; 0 means 10 000 000.
	MaxTotalWork int64
	// MaxBody caps request body size; 0 means 8 MiB.
	MaxBody int64
	// BigRingThreshold routes sequential A1..C2 unit-job requests with
	// m at or above it to the big-ring engine (internal/bigring) instead
	// of the pool engine; 0 means 100 000, negative disables the
	// auto-routing (an explicit engine:"bigring" request still works).
	// Results are bit-identical on both engines.
	BigRingThreshold int
	// BigRingWorkers is the big-ring engine's span parallelism per
	// request (bigring.Options.Workers): 0 lets the engine default to
	// GOMAXPROCS on huge rings, 1 forces sequential stepping.
	BigRingWorkers int
	// MaxSessions bounds concurrently live streaming sessions; 0 means
	// 1024. Creation past the cap answers 429 session_limit.
	MaxSessions int
	// SessionTTL is the idle eviction deadline for streaming sessions
	// (a session untouched this long is evicted); 0 means 10 minutes.
	// Per-session ttlMs values may shorten it, never extend.
	SessionTTL time.Duration
	// SessionFlush, when non-nil, receives the terminal snapshot of
	// every session flushed by graceful drain (each is stepped to
	// quiescence first). Called synchronously from the drain path.
	SessionFlush func(SessionSnapshot)
	// AccessLog, when non-nil, receives one ringsched.span/v1 JSONL
	// record per API request: the request ID, endpoint, status, cache
	// verdict and the span tree (canonicalize, cache, queue, compute
	// with engine/solver children, encode). Writes are whole-line
	// atomic; the writer is shared by all handler goroutines.
	AccessLog io.Writer
	// Remote, when non-nil, is the cluster layer: on a cache miss the
	// singleflight leader offers the request to Remote (which fetches
	// the body from the key's owning peer) before computing locally.
	// Requests that arrived with the peer-forward header never
	// re-forward, so differing ownership views cannot loop.
	Remote Remote
	// ExtraProm, when non-nil, is called after the server's own
	// families when rendering /metrics (the cluster layer appends its
	// peer, breaker and degradation families here).
	ExtraProm func(*metrics.PromWriter)
	// ExtraStatus, when non-nil, contributes the "cluster" block of
	// /v1/statusz.
	ExtraStatus func() any
}

// Remote is the hook a cluster layer implements to serve cache misses
// from the key's owning peer. Fetch returns the exact response body to
// put on the wire (and in the local cache); ok=false means "compute
// locally" — the key is self-owned, the owner is down or its breaker is
// open, or the retry envelope was exhausted. Fetch must honor ctx.
type Remote interface {
	Fetch(ctx context.Context, endpoint, key string, req []byte) (body []byte, ok bool)
}

// PeerForwardHeader marks a request forwarded by a cluster peer: the
// value is the forwarding node's advertised address. The receiving node
// answers from its own cache/pool and never re-forwards.
const PeerForwardHeader = "X-Ringserve-Peer"

// WithDefaults returns c with every zero field replaced by its default.
// New applies it automatically; callers that adjust caps relative to the
// effective values (e.g. the selftests' huge-instance widening) apply it
// first so they only ever raise limits, never clobber an unset default.
func (c Config) WithDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxM <= 0 {
		c.MaxM = 100_000
	}
	if c.MaxTotalWork <= 0 {
		c.MaxTotalWork = 10_000_000
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.BigRingThreshold == 0 {
		c.BigRingThreshold = 100_000
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	return c
}

// Server is one ringserve daemon instance: handlers, compute pool,
// result cache and its own observability state (counters, per-endpoint
// latency histograms, optional access log). Create it with New; it is
// safe for concurrent use.
type Server struct {
	cfg       Config
	pool      *pool
	cache     *cache
	flight    *flightGroup
	sessions  *sessionRegistry
	mux       *http.ServeMux
	start     time.Time
	stats     *metrics.ServeStats
	lat       map[string]*endpointLat
	accessLog *metrics.SpanLog
	// notReady and draining drive GET /v1/readyz: a node reports ready
	// only when it has finished starting (SetReady) and is not shutting
	// down. Load balancers and cluster peers stop routing on not-ready
	// before in-flight work is cut off.
	notReady atomic.Bool
	draining atomic.Bool
	// solverBase is the process-wide solver counter state at New time,
	// so /metrics can attribute solver activity since this server came
	// up (and stay deterministic for a fresh server).
	solverBase metrics.SolverSnapshot
}

// expvarOnce guards the process-wide expvar name (Publish panics on
// duplicates; tests build many Servers), and liveServer is the
// indirection behind it: the name always reports the most recently
// created Server's stats, so a second daemon in one process — common in
// tests, and legal in embedders — is never silently shadowed by the
// first one's counters.
var (
	expvarOnce sync.Once
	liveServer atomic.Pointer[Server]
)

// New builds a Server from cfg (zero fields defaulted) and starts its
// worker pool. Callers that never Serve should still let drain run via
// Serve/Close semantics — in tests, use httptest with s.Handler() and
// call s.drainPool via Serve's path or simply leak the pool until exit.
func New(cfg Config) *Server {
	cfg = cfg.WithDefaults()
	stats := &metrics.ServeStats{}
	s := &Server{
		cfg:        cfg,
		pool:       newPool(cfg.Workers, cfg.QueueDepth),
		cache:      newCache(cfg.CacheEntries, cfg.CacheShards, stats),
		flight:     newFlightGroup(),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		stats:      stats,
		lat:        make(map[string]*endpointLat, len(latEndpoints)),
		accessLog:  metrics.NewSpanLog(cfg.AccessLog),
		solverBase: metrics.Solver.Snapshot(),
	}
	s.sessions = newSessionRegistry(cfg.MaxSessions, cfg.SessionTTL, stats)
	for _, ep := range latEndpoints {
		s.lat[ep] = &endpointLat{}
	}
	s.mux.HandleFunc("/v1/schedule", s.wrap("schedule", s.handleSchedule))
	s.mux.HandleFunc("/v1/optimal", s.wrap("optimal", s.handleOptimal))
	s.mux.HandleFunc("/v1/compare", s.wrap("compare", s.handleCompare))
	s.mux.HandleFunc("POST /v1/session", s.wrap("session", s.handleSessionCreate))
	s.mux.HandleFunc("POST /v1/session/{id}/arrivals", s.wrap("session", s.handleSessionArrivals))
	s.mux.HandleFunc("GET /v1/session/{id}", s.wrap("session", s.handleSessionGet))
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.wrap("session", s.handleSessionDelete))
	s.mux.HandleFunc("/v1/algorithms", s.wrap("algorithms", s.handleAlgorithms))
	s.mux.HandleFunc("/v1/healthz", s.wrap("healthz", s.handleHealthz))
	s.mux.HandleFunc("/v1/readyz", s.wrap("readyz", s.handleReadyz))
	s.mux.HandleFunc("/v1/statusz", s.wrap("statusz", s.handleStatusz))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	liveServer.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("ringserve", expvar.Func(func() any {
			if live := liveServer.Load(); live != nil {
				return live.expvarState()
			}
			return nil
		}))
	})
	return s
}

// Stats returns a snapshot of this server's own counters.
func (s *Server) Stats() metrics.ServeSnapshot { return s.stats.Snapshot() }

// expvarState is the expvar "ringserve" payload: counters plus the
// per-endpoint latency digests.
func (s *Server) expvarState() any {
	return struct {
		Counters metrics.ServeSnapshot         `json:"counters"`
		Latency  map[string]endpointLatencyOut `json:"latency"`
	}{s.stats.Snapshot(), s.latencyOut()}
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// SetReady flips the startup half of readiness: a node built with New
// is ready by default, and a cluster node calls SetReady(false) before
// its membership loop runs, then SetReady(true) after the first health
// sweep. Drain state is tracked separately and always wins.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports whether /v1/readyz would answer 200: started and not
// draining.
func (s *Server) Ready() bool { return !s.notReady.Load() && !s.draining.Load() }

// Close drains the server: admission stops, live streaming sessions are
// stepped to quiescence and flushed as terminal snapshots, queued pool
// work finishes, workers exit. Idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	s.drainSessions()
	s.pool.drain()
}

// Serve accepts connections on ln until ctx is cancelled, then shuts
// down gracefully: stop accepting, let in-flight requests finish
// (bounded by DrainTimeout), drain the compute pool, return nil. A
// non-graceful listener error is returned as-is.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Flip readiness before cutting the listener so peers and load
		// balancers polling /v1/readyz stop routing first.
		s.draining.Store(true)
		shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		done <- srv.Shutdown(shCtx)
	}()
	err := srv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		s.drainSessions()
		s.pool.drain()
		return err
	}
	shErr := <-done
	// In-flight HTTP requests have finished (or been cut off), so no
	// handler holds a session lock: flush surviving sessions, then let
	// the pool run down.
	s.drainSessions()
	s.pool.drain()
	return shErr
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Addr is a helper for callers that want the bound address before
// serving: it returns a started listener on addr (":0" for ephemeral).
func Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// ---- request plumbing ----

// decode reads a JSON body into v under the body-size cap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		if errors.Is(err, instance.ErrInvalid) {
			// Instance validation happens inside UnmarshalJSON; keep
			// that sentinel visible so the 400 carries invalid_instance.
			return err
		}
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

// writeJSON marshals body (appending a newline) and writes it with the
// given cache-status header, under an "encode" span when the request is
// traced. The returned bytes are what went on the wire — the caller
// caches them for future byte-identical hits.
func writeJSON(w http.ResponseWriter, ri *reqInfo, status int, cacheStatus string, body any) []byte {
	defer ri.span("encode", "")()
	b, err := json.Marshal(body)
	if err != nil {
		// Response types marshal by construction; treat failure as 500.
		ri.setStatus(http.StatusInternalServerError)
		http.Error(w, `{"error":{"code":"internal","message":"marshal failure"}}`, http.StatusInternalServerError)
		return nil
	}
	b = append(b, '\n')
	writeRaw(w, ri, status, cacheStatus, b)
	return b
}

func writeRaw(w http.ResponseWriter, ri *reqInfo, status int, cacheStatus string, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	if cacheStatus != "" {
		w.Header().Set("X-Ringserve-Cache", cacheStatus)
	}
	ri.setStatus(status)
	ri.setCache(cacheStatus)
	w.WriteHeader(status)
	w.Write(b)
}

// writeError maps err onto the HTTP plane via the exported sentinels,
// echoing the request ID in the error payload (error bodies are never
// cached, so the ID can ride in-band; success bodies stay ID-free to
// keep cached and fresh responses byte-identical).
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	ri := info(r)
	status, code := errorCode(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
		s.stats.Rejected()
	} else if status >= 400 && status < 500 {
		s.stats.BadRequest()
	}
	ri.setError(code)
	body := apiErrorBody{Code: code, Message: err.Error()}
	if ri != nil {
		body.RequestID = ri.id
	}
	writeJSON(w, ri, status, "", apiError{Error: body})
}

// timeout clamps a per-request timeoutMs to the server cap.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.RequestTimeout
	if ms > 0 {
		if req := time.Duration(ms) * time.Millisecond; req < d {
			d = req
		}
	}
	return d
}

// computeSpec describes one cacheable computation on the respond path.
type computeSpec struct {
	// endpoint is the wire endpoint ("schedule"|"optimal"|"compare"),
	// used to route a peer forward.
	endpoint string
	// key is the cache and coalescing identity.
	key       string
	timeoutMs int64
	// engine names the compute engine for stats/histogram attribution
	// ("bigring" splits off the big-ring families; anything else counts
	// as the pool).
	engine string
	// peerReq is the canonical request body a peer can replay to
	// produce byte-identical output; nil means "never forward".
	peerReq []byte
	// compute is the local computation; it runs on a worker goroutine,
	// must be pure in the request, and should honor ctx.
	compute func(ctx context.Context) (any, error)
}

// respond is the shared miss path: the cache first, then the
// singleflight layer (concurrent requests for one key share a single
// production), then — on the leading request only — either a peer fetch
// when a cluster Remote is attached, or a local compute on the worker
// pool. Followers replay the leader's bytes; a failed leader wakes them
// to take their own lap rather than inheriting its error.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, spec computeSpec) {
	s.stats.Request()
	ri := info(r)
	forwarded := r.Header.Get(PeerForwardHeader) != ""
	if forwarded {
		s.stats.PeerServed()
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(spec.timeoutMs))
	defer cancel()

	endLookup := ri.span("cache", "")
	body, hit := s.cache.get(spec.key)
	endLookup()
	if hit {
		writeRaw(w, ri, http.StatusOK, "hit", body)
		return
	}
	for {
		call, leader := s.flight.join(spec.key)
		if !leader {
			s.stats.Coalesced()
			select {
			case <-ctx.Done():
				s.stats.Canceled()
				s.writeError(w, r, ctx.Err())
				return
			case <-call.done:
			}
			if call.body != nil {
				writeRaw(w, ri, http.StatusOK, "coalesced", call.body)
				return
			}
			// The leader failed; its error is its own (a canceled
			// leader must not poison everyone queued behind it). Take
			// another lap — this request may lead the next flight.
			continue
		}
		// Leader. A previous leader may have finished between our cache
		// lookup and our join; re-checking here closes that race, so a
		// key is computed at most once while it stays cached.
		if body, ok := s.cache.peek(spec.key); ok {
			s.flight.leave(spec.key, call, body)
			writeRaw(w, ri, http.StatusOK, "hit", body)
			return
		}
		body, verdict, err := s.produce(ctx, ri, spec, forwarded)
		if err == nil {
			s.cache.put(spec.key, body)
		}
		s.flight.leave(spec.key, call, body)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, sim.ErrCanceled) {
				s.stats.Canceled()
			}
			s.writeError(w, r, err)
			return
		}
		writeRaw(w, ri, http.StatusOK, verdict, body)
		return
	}
}

// produce runs the leader's side of a flight: a peer fetch when the
// request is shardable and a cluster Remote is attached, local compute
// on the worker pool otherwise (including the graceful-degradation path
// when the owner is unreachable — Remote reports ok=false and the
// answer is computed here rather than failing the request). It returns
// the wire body plus the X-Ringserve-Cache verdict.
func (s *Server) produce(ctx context.Context, ri *reqInfo, spec computeSpec, forwarded bool) ([]byte, string, error) {
	if rem := s.cfg.Remote; rem != nil && spec.peerReq != nil && !forwarded {
		endPeer := ri.span("peer", "")
		body, ok := rem.Fetch(ctx, spec.endpoint, spec.key, spec.peerReq)
		endPeer()
		if ok {
			return body, "peer", nil
		}
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
	}
	type outcome struct {
		body any
		err  error
	}
	ch := make(chan outcome, 1)
	ok := s.pool.trySubmit(func(enqueued time.Time, wait time.Duration) {
		ri.observeQueue(enqueued, wait)
		if ctx.Err() != nil {
			// The client gave up while we sat in the queue; don't burn
			// a worker on a response nobody reads.
			ch <- outcome{err: ctx.Err()}
			return
		}
		execStart := time.Now()
		var o outcome
		o.err = guard(s.stats, func() error {
			var err error
			o.body, err = spec.compute(ctx)
			return err
		})
		if o.err == nil {
			s.stats.Compute()
			if spec.engine == "bigring" {
				s.stats.ComputeBigring()
			}
		}
		ri.observeEngine(execStart, time.Since(execStart), spec.engine)
		ch <- o
	})
	if !ok {
		return nil, "", errQueueFull
	}
	select {
	case <-ctx.Done():
		return nil, "", ctx.Err()
	case o := <-ch:
		if o.err != nil {
			return nil, "", o.err
		}
		endEnc := ri.span("encode", "")
		b, err := json.Marshal(o.body)
		endEnc()
		if err != nil {
			// Response types marshal by construction; treat failure as 500.
			return nil, "", fmt.Errorf("serve: marshal failure: %v", err)
		}
		return append(b, '\n'), "miss", nil
	}
}

// peerForm marshals the canonical request a peer would replay; nil (on
// a marshal failure, which request types rule out by construction)
// simply disables forwarding for this request.
func peerForm(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}

// ---- endpoints ----

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, fmt.Errorf("%w: use POST", errBadRequest))
		return
	}
	var req ScheduleRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := s.admissible(req.Instance); err != nil {
		s.writeError(w, r, err)
		return
	}
	switch req.Algorithm {
	case "A1", "B1", "C1", "A2", "B2", "C2", "cap", "online":
	default:
		s.writeError(w, r, fmt.Errorf("%w: unknown algorithm %q", errBadRequest, req.Algorithm))
		return
	}
	if len(req.Arrivals) > 0 && req.Algorithm != "online" {
		s.writeError(w, r, fmt.Errorf("%w: arrivals require algorithm \"online\"", errBadRequest))
		return
	}
	if req.Options.Distributed && (req.Algorithm == "cap" || req.Algorithm == "online") {
		s.writeError(w, r, fmt.Errorf("%w: distributed runs support A1..C2 only", errBadRequest))
		return
	}
	eng, err := s.resolveEngine(req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}

	// The cache identity. Without arrivals the rotation/reflection
	// symmetry holds, so the canonical fingerprint is the identity and
	// compute runs on the canonical copy (making cached and fresh
	// bodies byte-identical across all dihedral copies). Arrival
	// processor indices break the symmetry, so those requests are keyed
	// and computed on their exact form.
	endCanon := info(r).span("canonicalize", "")
	can := req.Instance.Canonical()
	fp := can.Fingerprint()
	endCanon()
	runOn := can
	ident := fp.String()
	if len(req.Arrivals) > 0 {
		runOn = req.Instance
		raw, _ := json.Marshal(req.Instance)
		sum := sha256.Sum256(append(raw, []byte(arrivalsKey(req.Arrivals))...))
		ident = fmt.Sprintf("exact-%x", sum)
	}
	key := fmt.Sprintf("schedule|%s|%s|steps=%d|dist=%t|bidir=%t|mig=%d|engine=%s",
		ident, req.Algorithm, req.Options.MaxSteps, req.Options.Distributed, req.Options.Bidirectional,
		req.Options.MigrationBudget, eng)

	// Peers replay the request with the engine pinned to our resolution,
	// so nodes with different thresholds still produce byte-identical
	// bodies for one key.
	peerOpts := req.Options
	peerOpts.Engine = eng

	ri := info(r)
	s.respond(w, r, computeSpec{
		endpoint:  "schedule",
		key:       key,
		timeoutMs: req.Options.TimeoutMs,
		engine:    eng,
		peerReq:   peerForm(ScheduleRequest{Instance: runOn, Algorithm: req.Algorithm, Options: peerOpts, Arrivals: req.Arrivals}),
		compute: func(ctx context.Context) (any, error) {
			defer ri.span("engine", "compute")()
			defer ri.span("engine="+eng, "engine")()
			return s.computeSchedule(ctx, runOn, fp, req, eng)
		},
	})
}

// resolveEngine picks the compute engine for a schedule request. The
// big-ring engine covers exactly the sequential bucket algorithms on
// unit-job static instances; an explicit request outside that domain is
// a 400, and ""/"auto" routes by ring size against BigRingThreshold.
func (s *Server) resolveEngine(req ScheduleRequest) (string, error) {
	bigOK := false
	switch req.Algorithm {
	case "A1", "B1", "C1", "A2", "B2", "C2":
		bigOK = !req.Options.Distributed && len(req.Arrivals) == 0 && req.Instance.IsUnit()
	}
	switch req.Options.Engine {
	case "", "auto":
		if bigOK && s.cfg.BigRingThreshold > 0 && req.Instance.M >= s.cfg.BigRingThreshold {
			return "bigring", nil
		}
		return "pool", nil
	case "pool":
		return "pool", nil
	case "bigring":
		if !bigOK {
			return "", fmt.Errorf("%w: engine \"bigring\" supports only sequential A1..C2 runs on unit-job instances without arrivals", errBadRequest)
		}
		return "bigring", nil
	default:
		return "", fmt.Errorf("%w: unknown engine %q (want auto, pool or bigring)", errBadRequest, req.Options.Engine)
	}
}

func (s *Server) computeSchedule(ctx context.Context, in instance.Instance, fp instance.Fingerprint, req ScheduleRequest, eng string) (any, error) {
	resp := ScheduleResponse{
		Schema:      Schema,
		Fingerprint: fp.String(),
		Algorithm:   req.Algorithm,
	}
	switch req.Algorithm {
	case "cap":
		opts := capring.Options()
		opts.MaxSteps = req.Options.MaxSteps
		opts.Ctx = ctx
		res, err := sim.Run(in, capring.Algorithm{}, opts)
		if err != nil {
			return nil, err
		}
		resp.Makespan, resp.Steps = res.Makespan, res.Steps
		resp.JobHops, resp.Messages = res.JobHops, res.Messages
		resp.Utilization = res.Utilization()
		resp.LowerBound = lb.Capacitated(in)
	case "online":
		oin, err := onlineInstance(in, req.Arrivals)
		if err != nil {
			return nil, err
		}
		res, err := online.Run(oin, online.Params{
			Bidirectional:   req.Options.Bidirectional,
			MigrationBudget: req.Options.MigrationBudget,
		})
		if err != nil {
			return nil, err
		}
		resp.Makespan, resp.Steps, resp.JobHops = res.Makespan, res.Steps, res.JobHops
		resp.MaxFlowTime = res.MaxFlowTime
		resp.Migrated = res.Migrated
		resp.LowerBound = online.LowerBound(oin)
	default:
		spec, err := bucket.ByName(req.Algorithm)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		switch {
		case req.Options.Distributed:
			res, err := dist.RunContext(ctx, in, spec, dist.Options{MaxSteps: req.Options.MaxSteps})
			if err != nil {
				return nil, err
			}
			resp.Makespan, resp.Steps = res.Makespan, res.Steps
			resp.JobHops, resp.Messages = res.JobHops, res.Messages
		case eng == "bigring":
			// The span-parallel flat-array engine: bit-identical to the
			// pool engine on this domain, O(m/workers) per step per
			// worker, zero steady-state allocation. It takes no ctx — a
			// run is bounded by MaxSteps, and the request deadline still
			// cuts off the response.
			res, err := bigring.Run(in, spec, bigring.Options{MaxSteps: req.Options.MaxSteps, Workers: s.cfg.BigRingWorkers})
			if err != nil {
				if errors.Is(err, bigring.ErrUnsupported) {
					return nil, fmt.Errorf("%w: %v", errBadRequest, err)
				}
				return nil, err
			}
			resp.Engine = eng
			resp.Makespan, resp.Steps = res.Makespan, res.Steps
			resp.JobHops, resp.Messages = res.JobHops, res.Messages
			resp.Utilization = res.Utilization()
		default:
			res, err := sim.Run(in, spec, sim.Options{MaxSteps: req.Options.MaxSteps, Ctx: ctx})
			if err != nil {
				return nil, err
			}
			resp.Engine = eng
			resp.Makespan, resp.Steps = res.Makespan, res.Steps
			resp.JobHops, resp.Messages = res.JobHops, res.Messages
			resp.Utilization = res.Utilization()
		}
		// Exact and O(m log L), so huge bigring rings get the same
		// certificate as the pool engine's answers.
		resp.LowerBound = lb.Best(in)
	}
	return resp, nil
}

// onlineInstance lifts a static instance plus arrival batches into the
// online model's form (time-0 batches from the instance's unit works).
func onlineInstance(in instance.Instance, arrivals []ArrivalBatch) (online.Instance, error) {
	if !in.IsUnit() {
		return online.Instance{}, fmt.Errorf("%w: algorithm \"online\" requires a unit-job instance", errBadRequest)
	}
	var batches []online.Batch
	for i, n := range in.Unit {
		if n > 0 {
			batches = append(batches, online.Batch{Time: 0, Proc: i, Count: n})
		}
	}
	for _, a := range arrivals {
		batches = append(batches, online.Batch{Time: a.T, Proc: a.Proc, Count: a.Count})
	}
	oin, err := online.NewInstance(in.M, batches)
	if err != nil {
		return online.Instance{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return oin, nil
}

func (s *Server) handleOptimal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, fmt.Errorf("%w: use POST", errBadRequest))
		return
	}
	var req OptimalRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := s.admissible(req.Instance); err != nil {
		s.writeError(w, r, err)
		return
	}
	if !req.Instance.IsUnit() {
		s.writeError(w, r, fmt.Errorf("%w: the exact solver requires a unit-job instance", errBadRequest))
		return
	}
	ri := info(r)
	endCanon := ri.span("canonicalize", "")
	can := req.Instance.Canonical()
	fp := can.Fingerprint()
	endCanon()
	key := fmt.Sprintf("optimal|%s|cap=%t|%s|exact=%t",
		fp.String(), req.Capacitated, optKey(req.Limits), req.RequireExact)

	s.respond(w, r, computeSpec{
		endpoint:  "optimal",
		key:       key,
		timeoutMs: req.Limits.DeadlineMs,
		peerReq:   peerForm(OptimalRequest{Instance: can, Capacitated: req.Capacitated, Limits: req.Limits, RequireExact: req.RequireExact}),
		compute: func(ctx context.Context) (any, error) {
			defer ri.span("solver", "compute")()
			resp, err := solveOptimal(ctx, can, fp, req.Capacitated, req.Limits)
			if err != nil {
				return nil, err
			}
			if req.RequireExact && !resp.Exact {
				return nil, fmt.Errorf("serve: solver fell back to the %s lower bound %d under the given limits: %w",
					resp.Method, resp.Length, opt.ErrLimitExceeded)
			}
			return resp, nil
		},
	})
}

// solveOptimal runs the exact solver under wire limits plus ctx.
func solveOptimal(ctx context.Context, can instance.Instance, fp instance.Fingerprint, capacitated bool, l OptimalLimits) (OptimalResponse, error) {
	lim := opt.Limits{
		MaxArcs:   l.MaxArcs,
		UpperHint: l.UpperHint,
		Ctx:       ctx,
	}
	if l.DeadlineMs > 0 {
		lim.Deadline = time.Duration(l.DeadlineMs) * time.Millisecond
	}
	var res opt.Result
	if capacitated {
		res = opt.Capacitated(can, lim)
	} else {
		res = opt.Uncapacitated(can, lim)
	}
	return OptimalResponse{
		Schema:      Schema,
		Fingerprint: fp.String(),
		Length:      res.Length,
		Exact:       res.Exact,
		Method:      res.Method,
		FlowCalls:   res.FlowCalls,
	}, nil
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, fmt.Errorf("%w: use POST", errBadRequest))
		return
	}
	var req CompareRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := s.admissible(req.Instance); err != nil {
		s.writeError(w, r, err)
		return
	}
	if !req.Instance.IsUnit() {
		s.writeError(w, r, fmt.Errorf("%w: compare needs the exact solver, which requires a unit-job instance", errBadRequest))
		return
	}
	algs, err := normalizeAlgorithms(req.Algorithms)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ri := info(r)
	endCanon := ri.span("canonicalize", "")
	can := req.Instance.Canonical()
	fp := can.Fingerprint()
	endCanon()
	key := fmt.Sprintf("compare|%s|algs=%v|%s", fp.String(), algs, optKey(req.Limits))

	s.respond(w, r, computeSpec{
		endpoint:  "compare",
		key:       key,
		timeoutMs: req.timeoutMs(),
		peerReq:   peerForm(CompareRequest{Instance: can, Algorithms: algs, Limits: req.Limits, Options: req.Options, TimeoutMs: req.TimeoutMs}),
		compute: func(ctx context.Context) (any, error) {
			endSolver := ri.span("solver", "compute")
			optResp, err := solveOptimal(ctx, can, fp, false, req.Limits)
			endSolver()
			if err != nil {
				return nil, err
			}
			defer ri.span("engine", "compute")()
			resp := CompareResponse{
				Schema:      Schema,
				Fingerprint: fp.String(),
				Opt:         optResp,
				Runs:        make(map[string]CompareRun, len(algs)),
			}
			var bestSpan int64 = -1
			for _, name := range algs {
				spec, err := bucket.ByName(name)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", errBadRequest, err)
				}
				res, err := sim.Run(can, spec, sim.Options{Ctx: ctx})
				if err != nil {
					return nil, err
				}
				run := CompareRun{
					Makespan: res.Makespan,
					JobHops:  res.JobHops,
					Messages: res.Messages,
				}
				if optResp.Length > 0 {
					run.Factor = float64(res.Makespan) / float64(optResp.Length)
				}
				resp.Runs[name] = run
				if bestSpan < 0 || res.Makespan < bestSpan {
					bestSpan = res.Makespan
					resp.Best = name
				}
			}
			return resp, nil
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleReadyz is GET /v1/readyz: distinct from /v1/healthz liveness,
// it answers 503 while the node is starting (a cluster node holds
// not-ready until its first health sweep completes) or draining, so
// peers and load balancers stop routing before in-flight work is cut
// off.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("{\"status\":\"draining\"}\n"))
	case s.notReady.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("{\"status\":\"starting\"}\n"))
	default:
		w.Write([]byte("{\"status\":\"ready\"}\n"))
	}
}

// statuszResponse is the live counter dump behind GET /v1/statusz.
type statuszResponse struct {
	Schema       string  `json:"schema"`
	UptimeSec    float64 `json:"uptimeSec"`
	Workers      int     `json:"workers"`
	WorkersBusy  int64   `json:"workersBusy"`
	QueueLen     int     `json:"queueLen"`
	QueueDepth   int     `json:"queueDepth"`
	CacheEntries int     `json:"cacheEntries"`
	CacheCap     int     `json:"cacheCap"`
	HitRate      float64 `json:"hitRate"`
	Ready        bool    `json:"ready"`
	// Sessions counts live streaming sessions against their cap.
	Sessions    int                           `json:"sessions"`
	SessionsCap int                           `json:"sessionsCap"`
	Counters    metrics.ServeSnapshot         `json:"counters"`
	Latency     map[string]endpointLatencyOut `json:"latency"`
	// Cluster is the cluster layer's status block (shard ownership,
	// peer breaker states); absent on a single-node daemon.
	Cluster any `json:"cluster,omitempty"`
}

// endpointLatencyOut is one endpoint's latency digest on the wire:
// p50/p90/p99 plus mean and count per phase.
type endpointLatencyOut struct {
	Total  metrics.QuantileSummary `json:"total"`
	Queue  metrics.QuantileSummary `json:"queue"`
	Engine metrics.QuantileSummary `json:"engine"`
	// EngineBigring is the execution-time digest of computes that ran
	// the big-ring engine (kept apart from Engine, the pool path, so
	// huge-instance requests don't skew pool latencies).
	EngineBigring metrics.QuantileSummary `json:"engineBigring"`
	// EngineOnline is the same split for streaming sessions' resumable
	// online engine.
	EngineOnline metrics.QuantileSummary `json:"engineOnline"`
}

// latencyOut digests every instrumented endpoint's histograms.
func (s *Server) latencyOut() map[string]endpointLatencyOut {
	out := make(map[string]endpointLatencyOut, len(latEndpoints))
	for _, ep := range latEndpoints {
		lat := s.lat[ep]
		out[ep] = endpointLatencyOut{
			Total:         lat.hist[latTotal].Snapshot().Summary(),
			Queue:         lat.hist[latQueue].Snapshot().Summary(),
			Engine:        lat.hist[latEngine].Snapshot().Summary(),
			EngineBigring: lat.engineBigring.Snapshot().Summary(),
			EngineOnline:  lat.engineOnline.Snapshot().Summary(),
		}
	}
	return out
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	snap := s.stats.Snapshot()
	resp := statuszResponse{
		Schema:       Schema,
		UptimeSec:    time.Since(s.start).Seconds(),
		Workers:      s.cfg.Workers,
		WorkersBusy:  s.pool.busyWorkers(),
		QueueLen:     s.pool.queueLen(),
		QueueDepth:   s.cfg.QueueDepth,
		CacheEntries: s.cache.len(),
		CacheCap:     s.cfg.CacheEntries,
		HitRate:      snap.HitRate(),
		Ready:        s.Ready(),
		Sessions:     s.sessions.len(),
		SessionsCap:  s.cfg.MaxSessions,
		Counters:     snap,
		Latency:      s.latencyOut(),
	}
	if s.cfg.ExtraStatus != nil {
		resp.Cluster = s.cfg.ExtraStatus()
	}
	writeJSON(w, info(r), http.StatusOK, "", resp)
}
