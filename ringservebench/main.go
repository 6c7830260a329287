// Command ringservebench is the end-to-end benchmark of the ringserve
// daemon. It starts a serve.Server on a loopback socket inside its own
// process (production defaults, except MaxM raised to admit 10^6-processor
// rings) and drives it in a closed loop: two client goroutines, one
// connection each, sending inputs generated from --seed. Every answer is
// checked after the timed phase, against a computation made apart from
// the server or against a property the method must have.
//
//	ringservebench --workload cached_hits --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (setup_s, ops_per_s,
// p50_ms, p90_ms, heap_p90_mb). With --trace 1 it runs the workload twice,
// untraced and then with the daemon's access log on, and reports the
// per-layer metrics of the traced half plus the tracing overhead. With
// --steady N it runs the workload N times as child processes (all at
// --seed, or at seed, seed+1, ... with --vary-seed) and prints the
// median, quartiles and IQR/median of every metric. The last line of standard output is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ringservebench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ringservebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from a traced run")
	steady := fs.Int("steady", 0, "steadiness mode: run the workload this many times and print the spread of every metric")
	varySeed := fs.Bool("vary-seed", false, "with --steady, give the i-th run the seed seed+i instead of seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *steady > 0 {
		return steadiness(out, *name, *seed, *varySeed, *seconds, *trace, *steady)
	}

	fmt.Fprintf(out, "ringservebench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "machine %s\n", fingerprint())
	dur := time.Duration(*seconds) * time.Second
	var rep report
	if *trace == 1 {
		// The untraced half is the reference for the tracing overhead;
		// only the traced half feeds the per-layer metrics.
		plain, err := runOnce(*name, *seed, dur/2, false, 1)
		if err != nil {
			return err
		}
		traced, err := runOnce(*name, *seed, dur/2, true, 1)
		if err != nil {
			return err
		}
		pa, pf := plain.counts()
		ta, tf := traced.counts()
		rep = report{
			Correct:   plain.correct && traced.correct,
			Attempted: pa + ta,
			Failed:    pf + tf,
			Metrics:   layerMetrics(out, traced, plain),
		}
		printCounts(out, "untraced half", plain)
		printCounts(out, "traced half", traced)
	} else {
		res, err := runOnce(*name, *seed, dur, false, setupRepeats)
		if err != nil {
			return err
		}
		rep = report{Correct: res.correct, Metrics: endToEnd(res)}
		rep.Attempted, rep.Failed = res.counts()
		printCounts(out, "timed phase", res)
	}
	printMetrics(out, rep.Metrics)
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median, so one slow first set-up (heap growth, page faults) does
// not decide it.
const setupRepeats = 3

func fingerprint() string {
	return fmt.Sprintf("go=%s os=%s arch=%s numCPU=%d GOMAXPROCS=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(res *result) map[string]metric {
	lat := res.latenciesMs()
	attempted, failed := res.counts()
	return map[string]metric{
		"setup_s":     {median(durSeconds(res.setups)), "s"},
		"ops_per_s":   {float64(attempted-failed) / res.elapsed.Seconds(), "1/s"},
		"p50_ms":      {quantile(lat, 0.5), "ms"},
		"p90_ms":      {quantile(lat, 0.9), "ms"},
		"heap_p90_mb": {quantile(res.heapMB, 0.9), "MB"},
	}
}

func printCounts(out io.Writer, label string, res *result) {
	attempted, failed := res.counts()
	fmt.Fprintf(out, "%s: %d rounds in %.3fs, %d ops attempted, %d failed, setup %v\n",
		label, res.rounds, res.elapsed.Seconds(), attempted, failed, roundDurs(res.setups))
	for c := class(0); c < numClasses; c++ {
		a, f := res.classCounts(c)
		if a > 0 {
			fmt.Fprintf(out, "  %-16s attempted %7d  failed %d\n", classNames[c], a, f)
		}
	}
	for _, msg := range res.problems {
		fmt.Fprintf(out, "  check failed: %s\n", msg)
	}
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func roundDurs(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(time.Millisecond)
	}
	return out
}
