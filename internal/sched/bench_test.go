// Scheduler micro-benchmarks: ns/step and allocs/step for the controlled-run
// engine under the main policy shapes, plus allocation regression tests for
// the no-logger hot path.
//
// The benchmarks grant exactly b.N steps per run (spinner bodies against a
// b.N budget), so ns/op IS ns/step and -benchmem's allocs/op is allocs/step;
// run-construction cost is amortized away by b.N.
//
// Run with:
//
//	go test -bench=. -benchmem ./internal/sched/
package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/memory"
	"repro/internal/sched"
)

// benchSteps grants exactly b.N steps under the given policy with n spinning
// processes, so the reported ns/op and allocs/op are per-step figures.
func benchSteps(b *testing.B, n int, policy sched.Policy) {
	b.ReportAllocs()
	r := sched.NewRun(n, policy)
	r.SpawnAll(func(p *sched.Proc) {
		for {
			p.Step()
		}
	})
	b.ResetTimer()
	r.Execute(int64(b.N))
}

// BenchmarkStepRoundRobin measures the contended handoff path: every step
// moves the token to a different process coroutine.
func BenchmarkStepRoundRobin(b *testing.B) {
	for _, n := range []int{2, 4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSteps(b, n, &sched.RoundRobin{})
		})
	}
}

// BenchmarkStepSolo measures the batched-window path: the whole run is one
// grant window, so steps cost no scheduling work at all.
func BenchmarkStepSolo(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSteps(b, n, sched.Solo{ID: 0})
		})
	}
}

// BenchmarkStepSubset measures alternation within a starved majority: two
// members ping-pong while everyone else stays parked.
func BenchmarkStepSubset(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSteps(b, n, &sched.Subset{IDs: []int{0, n - 1}})
		})
	}
}

// BenchmarkStepTraced measures the RoundRobin handoff with trace recording
// enabled, the one per-step cost knob the engine still has.
func BenchmarkStepTraced(b *testing.B) {
	b.ReportAllocs()
	r := sched.NewRun(2, &sched.RoundRobin{})
	r.RecordTrace()
	r.SpawnAll(func(p *sched.Proc) {
		for {
			p.Step()
		}
	})
	b.ResetTimer()
	r.Execute(int64(b.N))
}

// BenchmarkRunConstruction isolates the fixed cost of a controlled run:
// build, one granted step per process, unwind.
func BenchmarkRunConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := sched.NewRun(2, &sched.RoundRobin{})
		r.SpawnAll(func(p *sched.Proc) { p.Step() })
		r.Execute(100)
	}
}

// TestRegisterFreeModeZeroAllocs locks in the zero-allocation contract of
// the no-logger hot path: Register.Read and Register.Write on a free-mode
// process must not allocate.
func TestRegisterFreeModeZeroAllocs(t *testing.T) {
	reg := memory.NewRegister("r", 0)
	p := sched.FreeProc(0)
	if avg := testing.AllocsPerRun(200, func() {
		reg.Write(p, 42)
		reg.Read(p)
	}); avg != 0 {
		t.Errorf("free-mode Register.Read/Write allocates %.1f objects per op, want 0", avg)
	}
}

// TestRegisterControlledZeroAllocs asserts the same contract inside a
// controlled run, covering both the batched-window step path (Solo) and the
// cross-coroutine handoff path (RoundRobin), with no OnEvent logger and no
// trace recording.
func TestRegisterControlledZeroAllocs(t *testing.T) {
	t.Run("solo-window", func(t *testing.T) {
		reg := memory.NewRegister("r", 0)
		var avg float64
		r := sched.NewRun(1, sched.Solo{ID: 0})
		r.Spawn(0, func(p *sched.Proc) {
			avg = testing.AllocsPerRun(200, func() {
				reg.Write(p, 7)
				reg.Read(p)
			})
		})
		r.Execute(1 << 20)
		if avg != 0 {
			t.Errorf("batched-window Register.Read/Write allocates %.1f objects per op, want 0", avg)
		}
	})
	t.Run("roundrobin-handoff", func(t *testing.T) {
		reg := memory.NewRegister("r", 0)
		var avg float64
		r := sched.NewRun(2, &sched.RoundRobin{})
		r.Spawn(0, func(p *sched.Proc) {
			avg = testing.AllocsPerRun(100, func() {
				reg.Write(p, 7)
				reg.Read(p)
			})
		})
		r.Spawn(1, func(p *sched.Proc) {
			for {
				p.Step()
			}
		})
		r.Execute(1 << 20)
		if avg != 0 {
			t.Errorf("contended Register.Read/Write allocates %.1f objects per op, want 0", avg)
		}
	})
}

// TestStepZeroAllocs asserts that a bare Step (no memory object involved)
// does not allocate, under each policy shape the BenchmarkStep* family
// measures: the RoundRobin handoff, the Solo batched window, alternation
// within a Subset, and the RoundRobin handoff with trace recording on
// (whose growing trace slice may allocate, amortized, but never once per
// step).
func TestStepZeroAllocs(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		policy sched.Policy
		traced bool
	}{
		{"roundrobin/n=2", 2, &sched.RoundRobin{}, false},
		{"roundrobin/n=4", 4, &sched.RoundRobin{}, false},
		{"roundrobin/n=16", 16, &sched.RoundRobin{}, false},
		{"solo/n=1", 1, sched.Solo{ID: 0}, false},
		{"solo/n=8", 8, sched.Solo{ID: 0}, false},
		{"subset/n=4", 4, &sched.Subset{IDs: []int{0, 3}}, false},
		{"subset/n=16", 16, &sched.Subset{IDs: []int{0, 15}}, false},
		{"traced", 2, &sched.RoundRobin{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var avg float64
			r := sched.NewRun(tc.n, tc.policy)
			if tc.traced {
				r.RecordTrace()
			}
			r.Spawn(0, func(p *sched.Proc) {
				avg = testing.AllocsPerRun(200, p.Step)
			})
			for id := 1; id < tc.n; id++ {
				r.Spawn(id, func(p *sched.Proc) {
					for {
						p.Step()
					}
				})
			}
			r.Execute(1 << 20)
			if avg != 0 {
				t.Errorf("Step allocates %.1f objects per call, want 0", avg)
			}
		})
	}
}
