package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"ringsched/internal/metrics"
	"ringsched/internal/serve"
)

// class is the kind of operation a failure is counted against.
type class uint8

const (
	clsSchedule class = iota
	clsCompare
	clsCreate
	clsAppend
	clsGet
	clsDelete
	numClasses
)

var classNames = [numClasses]string{"schedule", "compare", "session_create", "session_append", "session_get", "session_delete"}

// traffic is one workload. A run repeats whole rounds of the same
// items, so every run attempts the same operations in the same
// proportions whatever its seed and length; the seed only changes the
// generated loads.
type traffic interface {
	// capacity is how many operations one client may record in a timed
	// phase of dur, set well above what the program does today so that
	// a faster program still fits; a run that would record more fails.
	capacity(dur time.Duration) int
	// alloc allocates, in set-up, the records the checks need for n
	// operations per client; free releases them.
	alloc(n int) error
	free()
	// warm sends the warm-up traffic; any failure there aborts the run.
	warm(cs []*client) error
	// roundLen is the number of items in one round.
	roundLen() int
	// item runs item slot of round r on c. Warm-up items use rounds < 0,
	// whose inputs never repeat in the timed phase.
	item(c *client, r, slot int)
	// check verifies the recorded answers after the timed phase and
	// fails every operation whose answer is wrong.
	check(res *result)
	// direct times the module calls the server made for the operations
	// of the first timed round (traced runs only).
	direct() directTimes
}

var workloads = map[string]func(seed int64) traffic{
	"cached_hits":    newCachedHits,
	"fresh_small":    newFreshSmall,
	"large_rings":    newLargeRings,
	"session_stream": newSessionStream,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// nClients is the closed loop's client count, one connection each.
const nClients = 2

// harness is one daemon on a loopback socket inside this process.
type harness struct {
	srv    *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error
	log    *spanBuffer // nil unless traced
}

// spanBuffer keeps the access log in memory until the run ends, so
// writing a record costs the daemon one locked append.
type spanBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *spanBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *spanBuffer) take() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]byte(nil), b.buf.Bytes()...)
	b.buf.Reset()
	return out
}

// startServer starts a daemon with production defaults, except that
// MaxM admits 10^6-processor rings.
func startServer(traced bool) (*harness, error) {
	cfg := serve.Config{MaxM: 1_000_000}
	h := &harness{done: make(chan error, 1)}
	if traced {
		h.log = &spanBuffer{}
		cfg.AccessLog = h.log
	}
	ln, err := serve.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h.srv = serve.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	go func() { h.done <- h.srv.Serve(ctx, ln) }()
	h.base = "http://" + ln.Addr().String()
	return h, nil
}

// stop drains the daemon and waits for Serve to return.
func (h *harness) stop() error {
	h.cancel()
	if err := <-h.done; err != nil {
		return fmt.Errorf("server drain: %w", err)
	}
	return nil
}

// opRec is one recorded operation. It holds no pointers, so it can live
// in an arena.
type opRec struct {
	lat  float32 // client latency in µs; +Inf once the operation failed
	item int32   // index of the round item that issued it: round*roundLen+slot
	cls  class
}

// arena is a fixed-capacity list of records in an anonymous mapping
// outside the Go heap, allocated in set-up. The load generator's records
// then neither count in heap_p90_mb nor pace the collector, however many
// operations a run completes. T must hold no pointers: the collector
// does not scan the mapping.
type arena[T any] struct {
	recs    []T
	mapping []byte
}

func newArena[T any](n int) (*arena[T], error) {
	var zero T
	size := max(n, 1) * int(unsafe.Sizeof(zero))
	m, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d records of %d bytes: %w", n, unsafe.Sizeof(zero), err)
	}
	return &arena[T]{recs: unsafe.Slice((*T)(unsafe.Pointer(&m[0])), n)[:0], mapping: m}, nil
}

// add appends v and returns its index, or -1 when the arena is full.
func (a *arena[T]) add(v T) int {
	if len(a.recs) == cap(a.recs) {
		return -1
	}
	a.recs = append(a.recs, v)
	return len(a.recs) - 1
}

func (a *arena[T]) free() {
	if a != nil && a.mapping != nil {
		a.recs = nil
		syscall.Munmap(a.mapping)
		a.mapping = nil
	}
}

// arenas allocates one arena of n records per client.
func arenas[T any](n int) ([nClients]*arena[T], error) {
	var out [nClients]*arena[T]
	for i := range out {
		a, err := newArena[T](n)
		if err != nil {
			for _, b := range out[:i] {
				b.free()
			}
			return out, err
		}
		out[i] = a
	}
	return out, nil
}

// client is one closed-loop load generator with its own connection.
type client struct {
	id   int
	base string
	hc   *http.Client
	// item is the index of the item being run, stamped on its ops.
	item int32
	// warming marks warm-up traffic: not recorded, and any failure is
	// kept in warmErr.
	warming bool
	warmErr error
	warmSeq int

	ops *arena[opRec]
	// full is set when an arena of this client had no room left; the
	// timed phase then stops and the run fails.
	full      bool
	attempted [numClasses]int
	failed    [numClasses]int
	wrong     int // operations failed by a check (not by HTTP)
	problems  []string
	reqBytes  int64
	respBytes int64
}

func newClients(base string, capacity int) ([]*client, error) {
	cs := make([]*client, nClients)
	for i := range cs {
		ops, err := newArena[opRec](capacity)
		if err != nil {
			freeClients(cs[:i])
			return nil, err
		}
		cs[i] = &client{
			id:   i,
			base: base,
			hc: &http.Client{
				Timeout: 90 * time.Second,
				Transport: &http.Transport{
					MaxIdleConnsPerHost: 1,
					MaxConnsPerHost:     1,
					DisableCompression:  true,
				},
			},
			ops:     ops,
			warming: true,
		}
	}
	return cs, nil
}

// freeClients closes the connections and releases the records of
// clients no longer read.
func freeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
		c.ops.free()
	}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	cache  string // X-Ringserve-Cache
	lat    time.Duration
	err    error
}

func (r reply) String() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("status %d: %.200s", r.status, r.body)
}

// requestID names the next operation; the traced run joins client
// latencies to the daemon's access log by it.
func (c *client) requestID() string {
	if c.warming {
		c.warmSeq++
		return fmt.Sprintf("w%d-%d", c.id, c.warmSeq)
	}
	return fmt.Sprintf("c%d-%d", c.id, len(c.ops.recs))
}

// call sends one request and reads the whole answer. There are no
// retries: a 429 is a failed operation like any other non-200.
func (c *client) call(method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", c.requestID())
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err, lat: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{status: resp.StatusCode, body: b, cache: resp.Header.Get("X-Ringserve-Cache"), lat: time.Since(start), err: err}
	if !c.warming {
		c.reqBytes += int64(len(body))
		c.respBytes += int64(len(b))
	}
	return rep
}

// record books one operation: a transport error or a non-200 fails it,
// and so does a non-empty wrongWhy (a check made on the spot). It
// returns the operation's sequence number for later checks.
func (c *client) record(cls class, rep reply, wrongWhy string) int {
	ok := rep.err == nil && rep.status == http.StatusOK
	if c.warming {
		if !ok && c.warmErr == nil {
			c.warmErr = fmt.Errorf("%s: %s", classNames[cls], rep)
		}
		if ok && wrongWhy != "" && c.warmErr == nil {
			c.warmErr = fmt.Errorf("%s: %s", classNames[cls], wrongWhy)
		}
		return -1
	}
	seq := c.ops.add(opRec{lat: float32(rep.lat.Seconds() * 1e6), item: c.item, cls: cls})
	if seq < 0 {
		c.full = true
		return -1
	}
	c.attempted[cls]++
	switch {
	case !ok:
		c.markFailed(seq)
		c.note(fmt.Sprintf("%s: %s", classNames[cls], rep))
	case wrongWhy != "":
		c.fail(seq, wrongWhy)
	}
	return seq
}

// fail marks operation seq as answered wrongly.
func (c *client) fail(seq int, why string) {
	if seq < 0 || math.IsInf(float64(c.ops.recs[seq].lat), 1) {
		return
	}
	c.markFailed(seq)
	c.wrong++
	c.note(classNames[c.ops.recs[seq].cls] + ": " + why)
}

func (c *client) markFailed(seq int) {
	c.ops.recs[seq].lat = float32(math.Inf(1))
	c.failed[c.ops.recs[seq].cls]++
}

func (c *client) note(msg string) {
	if len(c.problems) < 10 {
		c.problems = append(c.problems, msg)
	}
}

// result is everything one run measured.
type result struct {
	w        traffic
	setups   []time.Duration
	elapsed  time.Duration
	rounds   int
	clients  []*client
	heapMB   []float64
	stats    metrics.ServeSnapshot // daemon counters over the timed phase
	gcCycles uint32
	gcPause  time.Duration
	spans    []byte // access log of the timed phase (traced runs)
	correct  bool
	problems []string
}

// counts sums the operations attempted and failed over every class.
func (r *result) counts() (attempted, failed int) {
	for c := class(0); c < numClasses; c++ {
		a, f := r.classCounts(c)
		attempted += a
		failed += f
	}
	return attempted, failed
}

func (r *result) classCounts(cls class) (attempted, failed int) {
	for _, c := range r.clients {
		attempted += c.attempted[cls]
		failed += c.failed[cls]
	}
	return attempted, failed
}

func (r *result) ops() int {
	n := 0
	for _, c := range r.clients {
		n += len(c.ops.recs)
	}
	return n
}

// latenciesMs lists every operation's latency; a failed operation
// counts as the whole timed phase, longer than any latency limit.
func (r *result) latenciesMs() []float64 {
	out := make([]float64, 0, r.ops())
	for _, c := range r.clients {
		for _, o := range c.ops.recs {
			if math.IsInf(float64(o.lat), 1) {
				out = append(out, float64(r.elapsed.Milliseconds()))
			} else {
				out = append(out, float64(o.lat)/1e3)
			}
		}
	}
	return out
}

// runOnce sets up repeats times (keeping the last daemon), runs the
// timed phase for dur, stops the daemon and checks every answer.
func runOnce(name string, seed int64, dur time.Duration, traced bool, repeats int) (*result, error) {
	res := &result{correct: true}
	var h *harness
	for i := 0; i < repeats; i++ {
		if h != nil {
			if err := h.stop(); err != nil {
				return nil, err
			}
			freeClients(res.clients)
			res.w.free()
		}
		t0 := time.Now()
		var err error
		if h, err = startServer(traced); err != nil {
			return nil, err
		}
		res.w = workloads[name](seed)
		if res.clients, err = setup(res.w, h.base, dur); err != nil {
			h.stop()
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0))
	}
	// The heap samples live in an arena too; the timed phase may run a
	// round past dur, and the sampler takes at most one sample a tick.
	heap, err := newArena[float64](int((2*dur + time.Minute) / heapTick))
	if err != nil {
		h.stop()
		return nil, err
	}
	defer heap.free()
	if h.log != nil {
		h.log.take() // drop the warm-up records
	}
	before := h.srv.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stopHeap := make(chan struct{})
	heapDone := make(chan bool)
	go sampleHeap(stopHeap, heapDone, heap)
	res.elapsed, res.rounds = timed(res.w, res.clients, dur)
	close(stopHeap)
	heapFull := <-heapDone
	runtime.ReadMemStats(&ms1)
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	res.stats = h.srv.Stats().Sub(before)
	if h.log != nil {
		res.spans = h.log.take()
	}
	if err := h.stop(); err != nil {
		return nil, err
	}
	for _, c := range res.clients {
		c.hc.CloseIdleConnections()
		if c.full {
			return nil, fmt.Errorf("client %d ran out of room for its records after %d operations: raise the workload's capacity", c.id, len(c.ops.recs))
		}
	}
	if heapFull {
		return nil, fmt.Errorf("heap samples ran out of room after %d samples", len(heap.recs))
	}
	res.heapMB = append([]float64(nil), heap.recs...)
	res.w.check(res)
	for _, c := range res.clients {
		if c.wrong > 0 {
			res.correct = false
		}
		res.problems = append(res.problems, c.problems...)
	}
	return res, nil
}

// setup makes the clients and the workload's records for a timed phase
// of dur, then warms the daemon up.
func setup(w traffic, base string, dur time.Duration) ([]*client, error) {
	n := w.capacity(dur)
	cs, err := newClients(base, n)
	if err != nil {
		return nil, err
	}
	if err = w.alloc(n); err == nil {
		err = w.warm(cs)
	}
	for _, c := range cs {
		if err == nil {
			err = c.warmErr
		}
		c.warming = false
	}
	if err != nil {
		freeClients(cs)
		w.free()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return cs, nil
}

// timed runs whole rounds on every client until dur has passed at a
// round boundary, and returns the wall time and the rounds completed.
// A client whose records are full stops every client at once.
func timed(w traffic, cs []*client, dur time.Duration) (time.Duration, int) {
	n := w.roundLen()
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		wg      sync.WaitGroup
	)
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				mu.Lock()
				if c.full || next%n == 0 && time.Since(start) >= dur {
					stopped = true
				}
				if stopped {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				c.item = int32(i)
				w.item(c, i/n, i%n)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), next / n
}

// heapTick is how often sampleHeap looks for a finished GC cycle.
const heapTick = time.Millisecond

// sampleHeap adds the live Go heap in MB to out once per GC cycle that
// ends while it runs, until stop is closed, then sends on done whether
// out ran out of room. The live heap is only measured at the end of a
// cycle; sampling it on a timer would weight each cycle by how long it
// stood, which on large_rings depends on where the collector happened
// to land inside a 10^6-ring request and moved the 90th percentile by
// 20% between runs.
func sampleHeap(stop <-chan struct{}, done chan<- bool, out *arena[float64]) {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	last := s[0].Value.Uint64()
	live := func() float64 { return float64(s[1].Value.Uint64()) / (1 << 20) }
	full := false
	t := time.NewTicker(heapTick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			if len(out.recs) == 0 {
				rtmetrics.Read(s)
				out.add(live())
			}
			done <- full
			return
		case <-t.C:
			rtmetrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				full = full || out.add(live()) < 0
			}
		}
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
