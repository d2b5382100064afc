// Sweep-harness benchmarks: end-to-end runs/s of the sharded sweep engine
// over the registered scenario set, and per-scenario single-run cost.
//
// BenchmarkSweep's ns/op is the cost of one seed swept across every
// registered scenario; the runs/s metric is the aggregate run throughput at
// each worker count (the scaling table of EXPERIMENTS.md).
//
// Run with:
//
//	go test -bench=. -benchmem ./internal/sim/
package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func benchScenarios(b *testing.B) []sim.Scenario {
	b.Helper()
	scenarios, err := sim.Select("all")
	if err != nil {
		b.Fatal(err)
	}
	out := scenarios[:0]
	for _, s := range scenarios {
		if s.Name != "test/broken" { // injected-failure fixture from the tests
			out = append(out, s)
		}
	}
	return out
}

// BenchmarkSweep measures sweep throughput at 1..8 workers.
func BenchmarkSweep(b *testing.B) {
	scenarios := benchScenarios(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			rep := sim.Sweep(scenarios, sim.Options{Seeds: uint64(b.N), Workers: w})
			if !rep.OK() {
				b.Fatalf("sweep found violations:\n%s", rep.Summary())
			}
			b.ReportMetric(float64(rep.Runs)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// BenchmarkScenarioRun measures the single-run cost of representative
// scenarios (one seeded schedule generated, executed and judged per op).
func BenchmarkScenarioRun(b *testing.B) {
	for _, name := range []string{"consensus/waitfree", "consensus/gated", "group/asym", "universal/log"} {
		s, ok := sim.Find(name)
		if !ok {
			b.Fatalf("scenario %s not registered", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := s.Run(uint64(i), false); !out.OK() {
					b.Fatalf("seed %d failed: %v", i, out.Violations)
				}
			}
		})
	}
}
