package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"ringsched/internal/metrics"
)

// layerMetrics derives the per-layer metrics of a traced run from three
// sources measured from outside the daemon: the client (latency, bytes),
// the daemon's ringsched.span/v1 access log, and module calls timed one
// by one in this process on the inputs of the first timed round. Time
// metrics are per operation ("ms/op"), so a layer that does no work in a
// workload reads 0 there, and a layer's share of serve.total_ms is its
// value over serve.total_ms. plain is the untraced half of the run, the
// reference for the tracing overhead.
func layerMetrics(out io.Writer, traced, plain *result) map[string]metric {
	recs := parseSpans(traced.spans)
	ops := float64(traced.ops())
	perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / ops }

	// Spans, summed per name over the timed operations, and the client
	// latency minus the daemon's own time (the HTTP transport).
	spanMs := map[string][]float64{}
	var totalUs, clientMs, transportMs float64
	var coverage []float64
	joined := 0
	for _, c := range traced.clients {
		for seq, o := range c.ops.recs {
			rec, ok := recs[fmt.Sprintf("c%d-%d", c.id, seq)]
			if !ok {
				continue
			}
			joined++
			totalUs += float64(rec.DurUs)
			if lat := float64(o.lat) / 1e3; !math.IsInf(lat, 1) {
				clientMs += lat
				transportMs += lat - float64(rec.DurUs)/1e3
			}
			var top int64
			for _, s := range rec.Spans {
				spanMs[s.Name] = append(spanMs[s.Name], float64(s.DurUs)/1e3)
				if s.Parent == "" {
					top += s.DurUs
				}
			}
			if rec.DurUs > 0 {
				coverage = append(coverage, float64(top)/float64(rec.DurUs))
			}
		}
	}
	spanPerOp := func(name string) float64 {
		var t float64
		for _, v := range spanMs[name] {
			t += v
		}
		return t / ops
	}

	d := traced.w.direct()
	dOps := float64(d.ops)
	dPerOp := func(t time.Duration) float64 { return t.Seconds() * 1e3 / dOps }
	nsPerStep := func(t time.Duration, steps int64) float64 {
		if steps == 0 {
			return 0
		}
		return float64(t.Nanoseconds()) / float64(steps)
	}
	st := traced.stats
	pool := st.Computes - st.ComputesBigring - st.ComputesOnline
	lat := traced.latenciesMs()
	ms := map[string]metric{
		"http.transport_ms":       {transportMs / ops, "ms/op"},
		"serve.total_ms":          {totalUs / 1e3 / ops, "ms/op"},
		"serve.span_coverage":     {median(coverage), "ratio"},
		"serve.decode_ms":         {dPerOp(d.decode), "ms/op"},
		"serve.req_kb":            {kbPerOp(traced, true), "KB/op"},
		"serve.resp_kb":           {kbPerOp(traced, false), "KB/op"},
		"instance.canonical_ms":   {dPerOp(d.canonical), "ms/op"},
		"serve.cache_ms":          {spanPerOp("cache"), "ms/op"},
		"serve.hit_ratio":         {st.HitRate(), "ratio"},
		"serve.queue_wait_ms":     {spanPerOp("queue"), "ms/op"},
		"serve.compute_ms":        {spanPerOp("compute"), "ms/op"},
		"serve.encode_ms":         {spanPerOp("encode"), "ms/op"},
		"serve.computes_pool":     {float64(pool) / ops, "count/op"},
		"serve.computes_bigring":  {float64(st.ComputesBigring) / ops, "count/op"},
		"serve.computes_online":   {float64(st.ComputesOnline) / ops, "count/op"},
		"sim.run_ms":              {dPerOp(d.sim), "ms/op"},
		"sim.ns_per_step":         {nsPerStep(d.sim, d.simSteps), "ns/step"},
		"bigring.run_ms":          {dPerOp(d.bigring), "ms/op"},
		"bigring.seq_ns_per_step": {nsPerStep(d.bigSeq, d.bigSteps), "ns/step"},
		"bigring.par_ns_per_step": {nsPerStep(d.bigPar, d.bigSteps), "ns/step"},
		"lb.best_ms":              {dPerOp(d.lbBest), "ms/op"},
		"lb.best_sparse_ms":       {dPerOp(d.lbSparse), "ms/op"},
		"opt.solve_ms":            {dPerOp(d.opt), "ms/op"},
		"opt.flow_calls":          {float64(d.flowCalls) / dOps, "count/op"},
		"online.run_ms":           {dPerOp(d.onlineRun), "ms/op"},
		"online.append_ms":        {dPerOp(d.onlineAppend), "ms/op"},
		"online.lower_bound_ms":   {dPerOp(d.onlineLB), "ms/op"},
		"runtime.gc_cycles":       {float64(traced.gcCycles) / ops, "count/op"},
		"runtime.gc_pause_ms":     {perOp(traced.gcPause), "ms/op"},
		"trace.overhead_ms":       {quantile(lat, 0.5) - quantile(plain.latenciesMs(), 0.5), "ms"},
		"trace.records_per_op":    {float64(joined) / ops, "count/op"},
	}
	for q := 0; q < 4; q++ {
		var app, lbt float64
		if n := d.appendQn[q]; n > 0 {
			app = d.appendQ[q].Seconds() * 1e3 / float64(n)
			lbt = d.lbQ[q].Seconds() * 1e3 / float64(n)
		}
		ms["online.append_ms.q"+strconv.Itoa(q+1)] = metric{app, "ms/append"}
		ms["online.lower_bound_ms.q"+strconv.Itoa(q+1)] = metric{lbt, "ms/append"}
	}
	printLayers(out, ms, spanMs, ops, clientMs/ops)
	return ms
}

// parseSpans indexes the access log by request ID.
func parseSpans(log []byte) map[string]metrics.SpanRecord {
	recs := map[string]metrics.SpanRecord{}
	for _, line := range bytes.Split(log, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec metrics.SpanRecord
		if err := json.Unmarshal(line, &rec); err == nil && rec.Schema == metrics.SpanSchema {
			recs[rec.ID] = rec
		}
	}
	return recs
}

func kbPerOp(res *result, request bool) float64 {
	var b int64
	for _, c := range res.clients {
		if request {
			b += c.reqBytes
		} else {
			b += c.respBytes
		}
	}
	return float64(b) / 1024 / float64(res.ops())
}

// layerRows are the per-layer table's rows: each time metric with the
// end-to-end metric it should move.
var layerRows = []struct{ name, moves string }{
	{"http.transport_ms", "p50_ms, ops_per_s"},
	{"serve.decode_ms", "p50_ms"},
	{"instance.canonical_ms", "p50_ms"},
	{"serve.cache_ms", "p50_ms, ops_per_s"},
	{"serve.queue_wait_ms", "p90_ms"},
	{"serve.compute_ms", "ops_per_s, p50_ms"},
	{"sim.run_ms", "ops_per_s, p50_ms"},
	{"bigring.run_ms", "p50_ms, p90_ms"},
	{"lb.best_ms", "p50_ms"},
	{"lb.best_sparse_ms", "p50_ms"},
	{"opt.solve_ms", "p90_ms"},
	{"online.run_ms", "p50_ms"},
	{"online.append_ms", "p50_ms, p90_ms, ops_per_s"},
	{"online.lower_bound_ms", "p50_ms, p90_ms, ops_per_s"},
	{"serve.encode_ms", "p50_ms"},
	{"runtime.gc_pause_ms", "heap_p90_mb, p90_ms"},
}

// printLayers prints the per-layer table (each layer's time per
// operation, its share of serve.total_ms and of the client latency), the
// span table (p50/p90 per span name) and the tracing overhead.
func printLayers(out io.Writer, ms map[string]metric, spanMs map[string][]float64, ops, clientMs float64) {
	total := ms["serve.total_ms"].Value
	fmt.Fprintf(out, "per-layer table: serve.total_ms %.4f ms/op, client latency %.4f ms/op\n", total, clientMs)
	fmt.Fprintf(out, "  %-24s %12s %9s %9s  %s\n", "layer", "ms/op", "of serve", "of client", "should move")
	share := func(v, of float64) float64 {
		if of <= 0 {
			return 0
		}
		return 100 * v / of
	}
	for _, r := range layerRows {
		v := ms[r.name].Value
		fmt.Fprintf(out, "  %-24s %12.5f %8.1f%% %8.1f%%  %s\n", r.name, v, share(v, total), share(v, clientMs), r.moves)
	}
	fmt.Fprintf(out, "spans of the access log:\n  %-16s %8s %10s %10s %10s\n", "span", "count", "p50_ms", "p90_ms", "ms/op")
	names := make([]string, 0, len(spanMs))
	for n := range spanMs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var t float64
		for _, v := range spanMs[n] {
			t += v
		}
		fmt.Fprintf(out, "  %-16s %8d %10.4f %10.4f %10.5f\n", n, len(spanMs[n]),
			quantile(spanMs[n], 0.5), quantile(spanMs[n], 0.9), t/ops)
	}
	fmt.Fprintf(out, "tracing overhead: %.4f ms on p50_ms (traced minus untraced half)\n", ms["trace.overhead_ms"].Value)
}
