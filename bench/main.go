// Command bench is this repository's benchmark: four closed-loop workloads,
// one per rung of the serving ladder (service → wire → cluster, batched and
// unbatched), each reporting six end-to-end metrics with tracing off and, in
// a separate traced run, the per-layer metrics that explain them. README.md
// in this directory lists the workloads, the metrics, and which per-layer
// metric should move which end-to-end metric on which workload.
//
// One run measures one workload and prints, as its last line of standard
// output, a JSON object {"correct", "attempted", "failed", "metrics"}:
//
//	bench --workload cluster-batch --seed 1 --seconds 12 --trace 0
//
// Without --workload it runs all four in turn. With -aa N it runs every
// workload of BENCHMARK.json N times untraced, each run in a process of its
// own, and reports each metric's spread against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: each in turn): "+workloadNames())
	seed := flag.Int64("seed", 1, "the only input to the op generators")
	seconds := flag.Int("seconds", 12, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	spanFile := flag.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	aa := flag.Int("aa", 0, "run every workload this many times untraced and compare the spreads with the bounds in -spec")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition read by -aa")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *aa > 0 {
		if err := selfCheck(*spec, *aa, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	first, last := 0, len(workloads)-1
	if *name != "" {
		if first = workloadIndex(*name); first < 0 {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
			os.Exit(2)
		}
		last = first
	}

	fmt.Printf("# bench: cpus=%d gomaxprocs=%d kernel=%s go=%s commit=%s memory.fetchadd_ns=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel(), runtime.Version(), commit(), calibrate(calibrateFor))
	fmt.Printf("# closed loop, %d clients, %d keys, loopback TCP with no injected delay: latencies are CPU and kernel loopback time\n",
		numClients, numKeys)
	t := newTables()
	ok := true
	for widx := first; widx <= last; widx++ {
		ok = runOne(widx, t, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spanFile) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runOne runs one workload, prints its metrics and its result line, and
// reports whether every check passed. A run that outlives runLimit is hung:
// the process exits rather than wait on it.
func runOne(widx int, t *tables, seed int64, length time.Duration, traced bool, spanFile string) bool {
	w := workloads[widx]
	watchdog := time.AfterFunc(length+runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running %v past its window\n", w.name, runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	var r *result
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		r, err = runTraced(widx, t, seed, length, spanFile)
	} else {
		r, err = runUntraced(widx, t, seed, length)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return false
	}

	fmt.Printf("== %s seed=%d window=%v traced=%v\n", w.name, seed, length, traced)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.name] = value{r.values[m.name], m.unit}
		fmt.Printf("%-30s %16.4f %s\n", m.name, r.values[m.name], m.unit)
	}
	fmt.Printf("%-30s %16d\n%-30s %16d\n", "ops_attempted", r.attempted, "ops_failed", r.failed)
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return false
	}
	fmt.Println(string(line))
	return r.failed == 0 && r.attempted > 0
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commit is the revision the binary was built from, when the build ran in a
// git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
