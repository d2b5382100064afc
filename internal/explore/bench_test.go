package explore

// Explorer benchmark family (P5 in EXPERIMENTS.md): state throughput and
// per-state allocation of both engines. Each benchmark reports a
// deterministic `states` metric (the reachable-set size, identical across
// engines and worker counts) and a `states/s` throughput metric; divide the
// harness's allocs/op by `states` for allocs/state.

import (
	"fmt"
	"testing"
)

type benchModel struct {
	name   string
	p      Protocol
	inputs []int
}

// benchModels is the workload ladder: gated (25 states) measures pure
// engine overhead, of8 (5.4k) a register-heavy model with wide states,
// tas4/tas5 (743 / 9.4k) the multi-process interleaving blowup that the
// parallel engine exists for.
func benchModels() []benchModel {
	return []benchModel{
		{"gated", GatedModel{}, []int{0, 1}},
		{"of8", OFModel{Rounds: 8}, []int{0, 1}},
		{"tas4", TASModel{Procs: 4}, []int{0, 1, 1, 0}},
		{"tas5", TASModel{Procs: 5}, []int{0, 1, 1, 0, 1}},
	}
}

func reportStates(b *testing.B, states int) {
	b.ReportMetric(float64(states), "states")
	b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
}

// BenchmarkExploreSeq measures the sequential BFS over the binary-key
// interner (the pre-PR baseline used string keys built with fmt).
func BenchmarkExploreSeq(b *testing.B) {
	for _, m := range benchModels() {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				g, err := Explore(m.p, m.inputs, 20000000)
				if err != nil {
					b.Fatal(err)
				}
				states = g.Size()
			}
			reportStates(b, states)
		})
	}
}

// BenchmarkExplorePar measures the sharded worker-pool engine across worker
// counts on the heaviest ladder model; states/s across the workers subruns
// is the explorer scaling table of EXPERIMENTS.md.
func BenchmarkExplorePar(b *testing.B) {
	for _, m := range benchModels() {
		if m.name != "tas5" && m.name != "of8" {
			continue
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", m.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				var states int
				for i := 0; i < b.N; i++ {
					g, err := ExploreParallel(m.p, m.inputs, 20000000, workers)
					if err != nil {
						b.Fatal(err)
					}
					states = g.Size()
				}
				reportStates(b, states)
			})
		}
	}
}

// BenchmarkExploreAnalyses measures the frozen-graph passes (valence
// fixpoint, memoized reachability, decider search) that the E8 experiments
// lean on.
func BenchmarkExploreAnalyses(b *testing.B) {
	g, err := Explore(TASModel{Procs: 5}, []int{0, 1, 1, 0, 1}, 20000000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("valence-fixpoint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range g.nodes {
				g.nodes[j].valence = g.nodes[j].local
			}
			g.computeValence()
		}
	})
	b.Run("find-decider-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.reach, g.reachOrder = nil, nil // drop the memo so every iteration pays full cost
			if idx := g.FindDecider(0, 10000); idx < -1 {
				b.Fatal("impossible")
			}
		}
	})
	b.Run("is-decider-memoized", func(b *testing.B) {
		b.ReportAllocs()
		g.reach, g.reachOrder = nil, nil
		idx := g.FindDecider(0, 10000)
		if idx < 0 {
			idx = g.Initial()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.IsDecider(idx, 0)
		}
	})
}

// TestAnalysesZeroAllocs pins the frozen-graph passes BenchmarkExploreAnalyses
// measures: a valence fixpoint from the local valences and an is-decider
// query against a memoized reachability set allocate nothing.
func TestAnalysesZeroAllocs(t *testing.T) {
	g, err := Explore(TASModel{Procs: 4}, []int{0, 1, 1, 0}, 20000000)
	if err != nil {
		t.Fatal(err)
	}
	idx := g.FindDecider(0, 10000)
	if idx < 0 {
		idx = g.Initial()
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"valence-fixpoint", func() {
			for j := range g.nodes {
				g.nodes[j].valence = g.nodes[j].local
			}
			g.computeValence()
		}},
		{"is-decider-memoized", func() { g.IsDecider(idx, 0) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(100, tc.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, avg)
		}
	}
}
