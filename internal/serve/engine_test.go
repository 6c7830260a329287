package serve

import (
	"bytes"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"ringsched/internal/lb"
)

// denseUnit builds a unit instance with every processor loaded — the
// shape huge-instance requests take, and one that quiesces in few steps
// so big-m tests stay fast.
func denseUnit(t *testing.T, m int, per int64) ScheduleRequest {
	t.Helper()
	works := make([]int64, m)
	for i := range works {
		works[i] = per
	}
	return ScheduleRequest{Instance: unitInstance(t, works), Algorithm: "C1"}
}

// TestScheduleEngineRouting covers the resolver: auto-routing by ring
// size against BigRingThreshold, explicit pool/bigring selection, and
// the bit-identity of the two engines' schedule numbers.
func TestScheduleEngineRouting(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, BigRingThreshold: 64})

	small := denseUnit(t, 8, 3)
	w := post(t, s, "/v1/schedule", small)
	if w.Code != http.StatusOK {
		t.Fatalf("small: status %d, body %s", w.Code, w.Body.String())
	}
	poolResp := decodeBody[ScheduleResponse](t, w)
	if poolResp.Engine != "pool" {
		t.Fatalf("small auto engine = %q, want pool", poolResp.Engine)
	}

	huge := denseUnit(t, 64, 3)
	w = post(t, s, "/v1/schedule", huge)
	if w.Code != http.StatusOK {
		t.Fatalf("huge: status %d, body %s", w.Code, w.Body.String())
	}
	bigResp := decodeBody[ScheduleResponse](t, w)
	if bigResp.Engine != "bigring" {
		t.Fatalf("huge auto engine = %q, want bigring (threshold 64)", bigResp.Engine)
	}

	// The same small ring under an explicit bigring request: identical
	// schedule numbers, different engine stamp, distinct cache entry.
	small.Options.Engine = "bigring"
	w = post(t, s, "/v1/schedule", small)
	if w.Code != http.StatusOK {
		t.Fatalf("explicit bigring: status %d, body %s", w.Code, w.Body.String())
	}
	expResp := decodeBody[ScheduleResponse](t, w)
	if expResp.Engine != "bigring" {
		t.Fatalf("explicit engine = %q, want bigring", expResp.Engine)
	}
	if expResp.Makespan != poolResp.Makespan || expResp.Steps != poolResp.Steps ||
		expResp.JobHops != poolResp.JobHops || expResp.Messages != poolResp.Messages {
		t.Fatalf("engines disagree: pool %+v vs bigring %+v", poolResp, expResp)
	}

	snap := s.Stats()
	if snap.ComputesBigring != 2 {
		t.Fatalf("computesBigring = %d, want 2 (auto huge + explicit small)", snap.ComputesBigring)
	}
	if pool := snap.Computes - snap.ComputesBigring; pool != 1 {
		t.Fatalf("pool computes = %d, want 1", pool)
	}
	if lat := s.latencyOut()["schedule"]; lat.EngineBigring.Count != 2 || lat.Engine.Count != 1 {
		t.Fatalf("engine histogram counts = pool %d / bigring %d, want 1 / 2",
			lat.Engine.Count, lat.EngineBigring.Count)
	}
}

// TestPoolScheduleLargeRing sends a pool-engine C1 request at
// m = 60 000, a size where a quadratic window scan alone outlasts the
// default request deadline: it must answer 200 with the exact bound.
func TestPoolScheduleLargeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("large-ring request skipped in -short")
	}
	s := newTestServer(t, Config{Workers: 1})
	rng := rand.New(rand.NewSource(60_000))
	works := make([]int64, 60_000)
	for i := range works {
		works[i] = rng.Int63n(4)
	}
	req := ScheduleRequest{Instance: unitInstance(t, works), Algorithm: "C1"}
	req.Options.Engine = "pool"
	w := post(t, s, "/v1/schedule", req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %.300s", w.Code, w.Body.String())
	}
	resp := decodeBody[ScheduleResponse](t, w)
	if want := lb.Best(req.Instance); resp.Engine != "pool" || resp.LowerBound != want {
		t.Fatalf("engine %q lowerBound %d, want pool and lb.Best = %d", resp.Engine, resp.LowerBound, want)
	}
}

// TestScheduleEngineRejections pins the 400s: bigring outside its
// domain and unknown engine names.
func TestScheduleEngineRejections(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	for _, tc := range []struct {
		name string
		req  ScheduleRequest
	}{
		{"distributed", ScheduleRequest{
			Instance:  unitInstance(t, []int64{4, 0, 0, 0}),
			Algorithm: "C1",
			Options:   ScheduleReqOptions{Engine: "bigring", Distributed: true},
		}},
		{"cap-algorithm", ScheduleRequest{
			Instance:  unitInstance(t, []int64{4, 0, 0, 0}),
			Algorithm: "cap",
			Options:   ScheduleReqOptions{Engine: "bigring"},
		}},
		{"online-arrivals", ScheduleRequest{
			Instance:  unitInstance(t, []int64{4, 0, 0, 0}),
			Algorithm: "online",
			Options:   ScheduleReqOptions{Engine: "bigring"},
			Arrivals:  []ArrivalBatch{{T: 2, Proc: 1, Count: 3}},
		}},
		{"unknown-engine", ScheduleRequest{
			Instance:  unitInstance(t, []int64{4, 0, 0, 0}),
			Algorithm: "C1",
			Options:   ScheduleReqOptions{Engine: "warp"},
		}},
	} {
		w := post(t, s, "/v1/schedule", tc.req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
		}
	}
}

// TestScheduleEngineSpanLog asserts the smoke-test contract CI greps
// for: a bigring-routed request writes an "engine=bigring" span to the
// access log, and a pool request writes "engine=pool".
func TestScheduleEngineSpanLog(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, BigRingThreshold: 64, AccessLog: &log})

	post(t, s, "/v1/schedule", denseUnit(t, 64, 2))
	post(t, s, "/v1/schedule", denseUnit(t, 8, 2))

	got := log.String()
	if !strings.Contains(got, `"engine=bigring"`) {
		t.Errorf("access log missing engine=bigring span:\n%s", got)
	}
	if !strings.Contains(got, `"engine=pool"`) {
		t.Errorf("access log missing engine=pool span:\n%s", got)
	}
}

// TestScheduleEngineCacheSplit: the resolved engine is part of the
// cache identity, so a pool body (engine:"pool") is never replayed for
// a bigring request of the same instance — and repeating one request is
// still a hit.
func TestScheduleEngineCacheSplit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	req := denseUnit(t, 16, 2)
	req.Options.Engine = "pool"
	if w := post(t, s, "/v1/schedule", req); w.Header().Get("X-Ringserve-Cache") != "miss" {
		t.Fatalf("first pool call: cache %q, want miss", w.Header().Get("X-Ringserve-Cache"))
	}
	req.Options.Engine = "bigring"
	w := post(t, s, "/v1/schedule", req)
	if v := w.Header().Get("X-Ringserve-Cache"); v != "miss" {
		t.Fatalf("first bigring call: cache %q, want miss (engine must split the key)", v)
	}
	if resp := decodeBody[ScheduleResponse](t, w); resp.Engine != "bigring" {
		t.Fatalf("engine = %q, want bigring", resp.Engine)
	}
	if w := post(t, s, "/v1/schedule", req); w.Header().Get("X-Ringserve-Cache") != "hit" {
		t.Fatalf("repeat bigring call: cache %q, want hit", w.Header().Get("X-Ringserve-Cache"))
	}
}
