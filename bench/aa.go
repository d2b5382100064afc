package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the A/A check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runLine is the last line a run prints.
type runLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// selfCheck runs every workload of the spec n times untraced, each run in a
// process of its own with its own seed — the way the benchmark is driven —
// and compares each end-to-end metric's spread, the distance between its
// quartiles as a share of its median, with the metric's bound. It is the
// first thing to run on a new machine: a metric that fails it there cannot
// tell a regression from noise there.
func selfCheck(specPath string, n int, seed int64) error {
	if n < 2 {
		return fmt.Errorf("-aa %d: quartiles need at least 2 runs", n)
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failures := 0
	for _, w := range spec.Workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(spec.RunSeconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line runLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return fmt.Errorf("%s run %d: last line: %w", w.Name, i, err)
			}
			if !line.Correct {
				return fmt.Errorf("%s run %d: not correct", w.Name, i)
			}
			for name, m := range line.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("== %s, %d runs of %d s\n", w.Name, n, spec.RunSeconds)
		fmt.Printf("%-16s %14s %14s %14s %14s %14s %8s %7s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
		for _, m := range spec.EndToEnd {
			v := values[m.Name]
			if len(v) != n {
				return fmt.Errorf("%s: %d values of %s in %d runs", w.Name, len(v), m.Name, n)
			}
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			verdict := "PASS"
			if spread > m.Bound {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%-16s %14.4f %14.4f %14.4f %14.4f %14.4f %7.2f%% %6.0f%% %s\n",
				m.Name, q2, q1, q3, slices.Min(v), slices.Max(v), spread*100, m.Bound*100, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", failures)
	}
	return nil
}

// quartiles cuts v the way Python's statistics.quantiles(v, n=4) does (the
// exclusive method), which is how the spreads are judged. len(v) ≥ 2.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := slices.Sorted(slices.Values(v))
	cut := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
