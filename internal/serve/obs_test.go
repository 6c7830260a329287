package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"expvar"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ringsched/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// get issues a GET against the handler.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// expvarRingserve reads the process-wide "ringserve" expvar and decodes
// it.
func expvarRingserve(t *testing.T) struct {
	Counters metrics.ServeSnapshot         `json:"counters"`
	Latency  map[string]endpointLatencyOut `json:"latency"`
} {
	t.Helper()
	v := expvar.Get("ringserve")
	if v == nil {
		t.Fatal("expvar ringserve not published")
	}
	var out struct {
		Counters metrics.ServeSnapshot         `json:"counters"`
		Latency  map[string]endpointLatencyOut `json:"latency"`
	}
	if err := json.Unmarshal([]byte(v.String()), &out); err != nil {
		t.Fatalf("decode expvar %q: %v", v.String(), err)
	}
	return out
}

// TestExpvarTracksLiveServer is the regression test for the old
// expvarOnce bug: the first Server in a process permanently owned the
// "ringserve" expvar name, so a second daemon silently reported the
// first one's counters. The name must follow the most recently created
// server.
func TestExpvarTracksLiveServer(t *testing.T) {
	a := newTestServer(t, Config{Workers: 1})
	in := unitInstance(t, []int64{5, 0, 0, 1})
	for i := 0; i < 3; i++ {
		if w := post(t, a, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A1"}); w.Code != http.StatusOK {
			t.Fatalf("warmup %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	if got := expvarRingserve(t); got.Counters.Requests != 3 {
		t.Fatalf("expvar requests = %d, want 3 (server a's traffic)", got.Counters.Requests)
	}

	// A second server takes over the name with fresh counters — before
	// the live-server indirection this still showed a's 3 requests.
	b := newTestServer(t, Config{Workers: 1})
	if got := expvarRingserve(t); got.Counters.Requests != 0 {
		t.Fatalf("expvar requests = %d after new server, want 0 (stale server a state)", got.Counters.Requests)
	}
	if w := post(t, b, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "C1"}); w.Code != http.StatusOK {
		t.Fatalf("server b request: %d %s", w.Code, w.Body.String())
	}
	got := expvarRingserve(t)
	if got.Counters.Requests != 1 {
		t.Fatalf("expvar requests = %d, want 1 (server b's traffic)", got.Counters.Requests)
	}
	if got.Latency["schedule"].Total.Count != 1 {
		t.Fatalf("expvar latency digest = %+v, want schedule count 1", got.Latency["schedule"])
	}
}

// TestRequestIDMintedAndEchoed checks the X-Request-Id contract:
// missing IDs are minted (distinct per request), sane inbound IDs are
// honored, and hostile ones are replaced.
func TestRequestIDMintedAndEchoed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	in := unitInstance(t, []int64{3, 0})
	body, _ := json.Marshal(ScheduleRequest{Instance: in, Algorithm: "A1"})

	send := func(id string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}

	w1, w2 := send(""), send("")
	id1, id2 := w1.Header().Get("X-Request-Id"), w2.Header().Get("X-Request-Id")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Fatalf("minted IDs = %q, %q — want non-empty and distinct", id1, id2)
	}

	if got := send("client-abc-123").Header().Get("X-Request-Id"); got != "client-abc-123" {
		t.Fatalf("sane inbound ID not honored: got %q", got)
	}
	for _, bad := range []string{"has space", "ctl\x01char", strings.Repeat("x", 129)} {
		if got := send(bad).Header().Get("X-Request-Id"); got == bad || got == "" {
			t.Fatalf("hostile ID %q not replaced (got %q)", bad, got)
		}
	}
}

// TestRequestIDInErrorBodyOnly checks the placement rule: error payloads
// carry the ID in-band (they are never cached), success payloads must
// not (cached and fresh bodies stay byte-identical).
func TestRequestIDInErrorBodyOnly(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	req := httptest.NewRequest(http.MethodPost, "/v1/schedule",
		strings.NewReader(`{"instance":{"kind":"unit","m":2,"unit":[1,0]},"algorithm":"Z9"}`))
	req.Header.Set("X-Request-Id", "err-probe-1")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	env := decodeBody[apiError](t, w)
	if env.Error.RequestID != "err-probe-1" {
		t.Fatalf("error requestId = %q, want err-probe-1", env.Error.RequestID)
	}

	in := unitInstance(t, []int64{3, 0})
	body, _ := json.Marshal(ScheduleRequest{Instance: in, Algorithm: "A1"})
	req = httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "leak-probe-7")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if bytes.Contains(w.Body.Bytes(), []byte("leak-probe-7")) {
		t.Fatalf("request ID leaked into a success body (breaks cache byte-identity): %s", w.Body.String())
	}
}

// spanNames indexes a record's spans by name.
func spanNames(rec metrics.SpanRecord) map[string]metrics.Span {
	out := make(map[string]metrics.Span, len(rec.Spans))
	for _, sp := range rec.Spans {
		out[sp.Name] = sp
	}
	return out
}

// TestAccessLogSpanRecords drives a miss, a hit and an error through a
// server with the access log enabled and checks each JSONL record:
// schema, identity, outcome fields, and the span tree the miss path is
// supposed to produce (canonicalize → cache → queue → compute with an
// engine child → encode).
func TestAccessLogSpanRecords(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, AccessLog: &log})
	in := unitInstance(t, []int64{6, 0, 0, 2})

	miss := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "C1"})
	hit := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "C1"})
	errw := post(t, s, "/v1/schedule", map[string]any{"instance": in, "algorithm": "Z9"})
	if miss.Code != 200 || hit.Code != 200 || errw.Code != 400 {
		t.Fatalf("statuses = %d/%d/%d", miss.Code, hit.Code, errw.Code)
	}

	var recs []metrics.SpanRecord
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var rec metrics.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid access-log line %q: %v", sc.Text(), err)
		}
		if rec.Schema != metrics.SpanSchema {
			t.Fatalf("record schema = %q, want %q", rec.Schema, metrics.SpanSchema)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 {
		t.Fatalf("access-log records = %d, want 3", len(recs))
	}

	m := recs[0]
	if m.Op != "schedule" || m.Status != 200 || m.Cache != "miss" || m.Error != "" {
		t.Fatalf("miss record = %+v", m)
	}
	if m.ID != miss.Header().Get("X-Request-Id") {
		t.Fatalf("miss record ID %q != response header %q", m.ID, miss.Header().Get("X-Request-Id"))
	}
	spans := spanNames(m)
	for _, want := range []string{"canonicalize", "cache", "queue", "compute", "engine", "encode"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("miss record lacks span %q: %+v", want, m.Spans)
		}
	}
	if spans["engine"].Parent != "compute" {
		t.Fatalf("engine span parent = %q, want compute", spans["engine"].Parent)
	}
	if m.DurUs < spans["compute"].DurUs {
		t.Fatalf("record duration %dµs < compute span %dµs", m.DurUs, spans["compute"].DurUs)
	}

	h := recs[1]
	if h.Cache != "hit" || h.Status != 200 {
		t.Fatalf("hit record = %+v", h)
	}
	hs := spanNames(h)
	if _, ok := hs["queue"]; ok {
		t.Fatalf("hit record has a queue span — hits must not touch the pool: %+v", h.Spans)
	}
	if _, ok := hs["cache"]; !ok {
		t.Fatalf("hit record lacks the cache span: %+v", h.Spans)
	}

	e := recs[2]
	if e.Status != 400 || e.Error != "invalid_request" || e.Cache != "" {
		t.Fatalf("error record = %+v", e)
	}
}

// TestSessionSpanRecords checks the span tree of session appends and
// deletes: one top-level compute span per record, with the engine span
// under it and engine=online under that.
func TestSessionSpanRecords(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, AccessLog: &log})
	id := createSession(t, s, SessionCreateRequest{M: 6}).ID
	appendWave(t, s, id, SessionArrivalsRequest{Arrivals: []ArrivalBatch{{T: 0, Proc: 0, Count: 5}}})
	appendWave(t, s, id, SessionArrivalsRequest{Arrivals: []ArrivalBatch{{T: 9, Proc: 3, Count: 4}}})
	if w := do(t, s, http.MethodDelete, "/v1/session/"+id); w.Code != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", w.Code, w.Body.String())
	}

	var computed int
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var rec metrics.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid access-log line %q: %v", sc.Text(), err)
		}
		parents := map[string][]string{}
		for _, sp := range rec.Spans {
			parents[sp.Name] = append(parents[sp.Name], sp.Parent)
		}
		if len(parents["compute"]) == 0 {
			continue // the create record runs no engine
		}
		computed++
		for name, parent := range map[string]string{"compute": "", "engine": "compute", "engine=online": "engine"} {
			if got := parents[name]; len(got) != 1 || got[0] != parent {
				t.Fatalf("record %s: %q spans have parents %q, want exactly one under %q", rec.Op, name, got, parent)
			}
		}
	}
	if computed != 3 {
		t.Fatalf("records with a compute span = %d, want 3 (two appends, one delete)", computed)
	}
}

// TestStatuszLatencyDigest is the acceptance check that p99 latency for
// /v1/schedule shows up on /v1/statusz, with the queue/engine split fed
// only by the miss path.
func TestStatuszLatencyDigest(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	in := unitInstance(t, []int64{8, 0, 0, 1})
	post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A2"}) // miss
	post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A2"}) // hit

	st := decodeBody[statuszResponse](t, get(t, s, "/v1/statusz"))
	lat, ok := st.Latency["schedule"]
	if !ok {
		t.Fatalf("statusz latency missing schedule endpoint: %+v", st.Latency)
	}
	if lat.Total.Count != 2 || lat.Total.P99Ms <= 0 || lat.Total.P50Ms > lat.Total.P99Ms {
		t.Fatalf("total digest = %+v", lat.Total)
	}
	if lat.Queue.Count != 1 || lat.Engine.Count != 1 {
		t.Fatalf("queue/engine counts = %d/%d, want 1/1 (one miss)", lat.Queue.Count, lat.Engine.Count)
	}
	if lat.Engine.P99Ms <= 0 {
		t.Fatalf("engine digest = %+v", lat.Engine)
	}
	for _, ep := range []string{"optimal", "compare"} {
		if d, ok := st.Latency[ep]; !ok || d.Total.Count != 0 {
			t.Fatalf("endpoint %s digest = %+v (ok=%v), want present and empty", ep, d, ok)
		}
	}
	if st.WorkersBusy < 0 || st.WorkersBusy > int64(st.Workers) {
		t.Fatalf("workersBusy = %d with %d workers", st.WorkersBusy, st.Workers)
	}
}

// TestMetricsGolden pins GET /metrics for a fresh fixed-shape server
// byte for byte (run with -update to regenerate testdata). Solver
// counters are per-server deltas, so the output is deterministic no
// matter what other tests did to the process-wide solver stats.
func TestMetricsGolden(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != metrics.PromContentType {
		t.Fatalf("content-type = %q", ct)
	}
	got := w.Body.Bytes()
	if err := metrics.CheckPromText(bytes.NewReader(got)); err != nil {
		t.Fatalf("exposition fails format check: %v", err)
	}

	golden := filepath.Join("testdata", "metrics_fresh.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run go test -run TestMetricsGolden -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// promValue scans a text exposition for one exact series and returns
// its value line.
func promValue(t *testing.T, text, series string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	t.Fatalf("series %q not in exposition:\n%s", series, text)
	return ""
}

// TestMetricsUnderLoad checks that a served workload shows up in the
// exposition — counters, per-endpoint histogram counts and the solver
// attribution — and that the loaded output still parses.
func TestMetricsUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{10, 0, 0, 2})
	post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "B1"})
	post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "B1"})
	post(t, s, "/v1/optimal", OptimalRequest{Instance: in})

	w := get(t, s, "/metrics")
	text := w.Body.String()
	if err := metrics.CheckPromText(strings.NewReader(text)); err != nil {
		t.Fatalf("loaded exposition fails format check: %v", err)
	}
	if v := promValue(t, text, "ringserve_requests_total"); v != "3" {
		t.Fatalf("requests_total = %s, want 3", v)
	}
	if v := promValue(t, text, "ringserve_cache_hits_total"); v != "1" {
		t.Fatalf("cache_hits_total = %s, want 1", v)
	}
	if v := promValue(t, text, `ringserve_request_duration_seconds_count{endpoint="schedule"}`); v != "2" {
		t.Fatalf("schedule duration count = %s, want 2", v)
	}
	if v := promValue(t, text, `ringserve_queue_wait_seconds_count{endpoint="optimal"}`); v != "1" {
		t.Fatalf("optimal queue-wait count = %s, want 1", v)
	}
	if v := promValue(t, text, "ringsched_solver_probes_total"); v == "0" {
		t.Fatalf("solver probes = 0 after an /v1/optimal call")
	}
}

// TestPoolQueueWaitSplit exercises the satellite split directly at the
// pool: tasks learn their enqueue stamp and queue wait, and the busy
// gauge tracks execution.
func TestPoolQueueWaitSplit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan struct{})
	block := make(chan struct{})
	if !s.pool.trySubmit(func(time.Time, time.Duration) { close(started); <-block }) {
		t.Fatal("could not park the worker")
	}
	<-started
	if got := s.pool.busyWorkers(); got != 1 {
		t.Fatalf("busyWorkers = %d with a parked worker", got)
	}

	type stamp struct {
		enqueued time.Time
		wait     time.Duration
	}
	ch := make(chan stamp, 1)
	before := time.Now()
	if !s.pool.trySubmit(func(enq time.Time, wait time.Duration) { ch <- stamp{enq, wait} }) {
		t.Fatal("queue submit failed")
	}
	const hold = 60 * time.Millisecond
	time.Sleep(hold)
	close(block)

	st := <-ch
	if st.enqueued.Before(before) || st.enqueued.After(before.Add(hold)) {
		t.Fatalf("enqueue stamp %v outside submit window", st.enqueued)
	}
	if st.wait < hold/2 {
		t.Fatalf("queue wait = %v, want at least ~%v (task sat behind a parked worker)", st.wait, hold)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.busyWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("busyWorkers stuck at %d", s.pool.busyWorkers())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSelfTestWithAccessLog is the acceptance run: the embedded load
// generator under a live access log, every emitted line a valid span
// record.
func TestSelfTestWithAccessLog(t *testing.T) {
	if testing.Short() {
		t.Skip("selftest load run skipped in -short")
	}
	var log, out bytes.Buffer
	err := SelfTest(Config{Workers: 2, QueueDepth: 32, AccessLog: &log},
		SelfTestOptions{Requests: 120, Clients: 4, Seed: 2}, &out)
	if err != nil {
		t.Fatalf("selftest with access log: %v\n%s", err, out.String())
	}
	var lines int
	sc := bufio.NewScanner(&log)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec metrics.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access-log line %d invalid: %v (%q)", lines+1, err, sc.Text())
		}
		if rec.Schema != metrics.SpanSchema || rec.ID == "" || rec.Op == "" {
			t.Fatalf("access-log line %d malformed: %+v", lines+1, rec)
		}
		lines++
	}
	if lines < 120 {
		t.Fatalf("access log lines = %d, want at least the 120 requests", lines)
	}
}
