package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs one workload n times as child processes and prints
// per metric the median, the quartiles and the spread IQR/median. Every
// run gets seed, so the spread is the run-to-run noise alone; with
// varySeed, run i gets seed+i, so the spread also holds the variation
// between inputs. Its last line is the medians as a report.
func steadiness(out io.Writer, name string, seed int64, varySeed bool, seconds, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	total := report{Correct: true, Metrics: map[string]metric{}}
	var shares []float64
	for i := 0; i < n; i++ {
		s := seed
		if varySeed {
			s += int64(i)
		}
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		var rep report
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			return fmt.Errorf("seed %d: last line: %w", s, err)
		}
		fmt.Fprintf(out, "seed %d: correct=%t attempted=%d failed=%d\n", s, rep.Correct, rep.Attempted, rep.Failed)
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		shares = append(shares, float64(rep.Failed)/float64(rep.Attempted))
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	fmt.Fprintf(out, "machine %s\n", fingerprint())
	seeds := fmt.Sprint("seed ", seed)
	if varySeed {
		seeds = fmt.Sprintf("seeds %d..%d", seed, seed+int64(n)-1)
	}
	fmt.Fprintf(out, "%s, %d runs of %d s, %s, failed shares %v\n", name, n, seconds, seeds, shares)
	fmt.Fprintf(out, "  %-26s %14s %14s %14s %9s\n", "metric", "median", "q1", "q3", "iqr/med")
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := values[k]
		q1, med, q3 := quantile(v, 0.25), median(v), quantile(v, 0.75)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(out, "  %-26s %14.6f %14.6f %14.6f %8.2f%%  %s\n", k, med, q1, q3, 100*spread, units[k])
		total.Metrics[k] = metric{med, units[k]}
	}
	b, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}
