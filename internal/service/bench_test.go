package service

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// The BenchmarkService* family measures the serving tier end to end:
// submit → shard queue → batched log commit (universal construction) →
// reply. ops/s is the headline serving throughput; ns/op is per-command
// latency under full client concurrency (b.RunParallel).

func benchStore(b *testing.B, cfg Config) {
	b.Helper()
	s := New(cfg)
	ctx := context.Background()
	var seq atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			key := fmt.Sprintf("k%d", n%512)
			var err error
			if n%4 == 0 {
				err = s.Put(ctx, key, "v")
			} else {
				_, _, err = s.Get(ctx, key)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	elapsed := time.Since(start)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	st := s.Stats()
	if st.Audit.Violations != 0 {
		b.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
	}
	b.ReportMetric(st.BatchSize.Mean(), "cmds/batch")
}

func BenchmarkServiceDo(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d/audit=on", shards), func(b *testing.B) {
			benchStore(b, Config{Shards: shards})
		})
		b.Run(fmt.Sprintf("shards=%d/audit=off", shards), func(b *testing.B) {
			benchStore(b, Config{Shards: shards, Audit: AuditConfig{Disabled: true}})
		})
	}
}

func BenchmarkServiceDoBatch(b *testing.B) {
	s := New(Config{Shards: 4, Audit: AuditConfig{Disabled: true}})
	ctx := context.Background()
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: fmt.Sprintf("k%d", i), Val: "v"}
	}
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DoBatch(ctx, ops); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := time.Since(start)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*len(ops))/elapsed.Seconds(), "ops/s")
	}
}

// BenchmarkServiceDoSupervised is the fault-point-overhead control: the
// same hot path as BenchmarkServiceDo but with worker supervision on and a
// fault set installed with nothing armed. The robustness seams must be free
// when idle — allocs/op identical to the unsupervised run, ns/op within
// noise.
func BenchmarkServiceDoSupervised(b *testing.B) {
	benchStore(b, Config{Shards: 4, Audit: AuditConfig{Disabled: true},
		Supervise: SuperviseConfig{Enabled: true}, Faults: fault.NewSet()})
}

// BenchmarkRecovery measures the crash-to-answer cycle on the free runtime:
// each iteration arms one pre-commit crash, so the timed Put kills the
// shard's only worker mid-commit and can only be answered after the
// supervisor respawns it and the successor recovers the interrupted batch.
// ns/op is therefore the client-observed cost of one full recovery
// (death notice + backoff + respawn + re-commit); recovery-ns is the
// server-side crash-to-first-commit latency from the supervision histogram.
func BenchmarkRecovery(b *testing.B) {
	fs := fault.NewSet()
	s := New(Config{Shards: 1, WorkersPerShard: 1, Audit: AuditConfig{Disabled: true},
		Supervise: SuperviseConfig{Enabled: true, MaxRestarts: 1 << 30,
			BackoffBase: int64(10 * time.Microsecond), BackoffCap: int64(10 * time.Microsecond)},
		Faults: fs})
	defer s.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Crash, Count: 1})
		if err := s.Put(ctx, "k", "v"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Stats()
	if st.Supervision.Restarts < int64(b.N) {
		b.Fatalf("expected >= %d restarts, got %d", b.N, st.Supervision.Restarts)
	}
	if r := st.Supervision.Recovery; r.Count > 0 {
		b.ReportMetric(r.MeanNs, "recovery-ns")
	}
}

// BenchmarkServiceSweep measures virtual-runtime sweep throughput: complete
// serving-tier runs (submitters, workers, auditor, driver — one controlled
// schedule each, exhaustively history-checked) per second, at 1 and 4 sweep
// workers. Only the fast fault-free scenario is swept so the per-op cost
// stays in the ~100µs range the bench gate's fixed iteration counts expect;
// fault-plan scenarios burn their full step budget by design and are
// covered by the sweep tests and the CI service-sim job.
func BenchmarkServiceSweep(b *testing.B) {
	smoke, ok := sim.Find("service:smoke")
	if !ok {
		b.Fatal("service:smoke not registered")
	}
	scenarios := []sim.Scenario{smoke}
	for _, w := range []int{1, 4} {
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

// TestDoBatchAllocBudget pins what a client call allocates on the free
// runtime: the slice of results DoBatch returns, and nothing else. The
// call's submission (its request slab and done channel) comes from a pool
// and goes back once the wait succeeds, and the worker's batch is reused
// once the truncation floor has passed it. testing.AllocsPerRun counts the
// whole process, so each figure includes the workers' share — a log cell
// amortised over a chunk — and it runs on one P, so the submitter enqueues
// a whole call before a worker drains it and the windows are full ones. A
// 1-op DoBatch is what every cluster replica applies per committed entry,
// and Do is the wire path.
//
// Each configuration runs twice: with one worker per shard, where the
// count is the call's own, and with the default two. With two, AllocsPerRun's
// one P can keep the idle worker off the CPU for a time slice; its replica
// then holds the truncation floor, and its peer allocates each window's
// batch afresh, the batch and its entries, until the idle one catches up.
// That lag belongs to the idle replica, not to the call, and it caps the
// count at the call's own plus two objects per window.
//
// The one-worker budgets are the counts measured once the log command
// carried its own ops: 1, 1 and 0. The two-worker budgets are that cap: 9
// (four windows of 64), 3 and 2. Of 200 runs, two copies of the test side
// by side, most read 1, 1 and 0 and none read more than the cap.
// The default store read 12, 4 and 3 at the commit before, when each call
// took a fresh submission and channel and each grant window a fresh batch,
// and 10 and 8 (the single-op rows) before submissions.
//
// The audit-on rows are the configuration production runs: the same calls,
// mixed get/put/cas, with every op recorded, windowed and checked. The
// auditor's share is in the count too, and in steady state it is nothing —
// the record is typed end to end and the checker reuses its scratch — so
// the audit-on counts equal the audit-off ones. Before the record stopped
// being boxed they read 430, 8 and 7. On AllocsPerRun's one P the
// auditor proc can starve, and a record dropped by a full mailbox is a gap
// that parks its successors in a map; the audit-on mailbox therefore holds
// the whole run, and the count does not depend on the scheduler.
func TestDoBatchAllocBudget(t *testing.T) {
	ctx := context.Background()
	puts, mixed := make([]Op, 256), make([]Op, 256)
	for i := range puts {
		key := fmt.Sprintf("k%03d", i)
		puts[i] = Op{Kind: OpPut, Key: key, Val: "v"}
		switch mixed[i] = puts[i]; i % 10 {
		case 0, 1, 2, 3, 4, 5:
			mixed[i] = Op{Kind: OpGet, Key: key}
		case 6: // the first call swaps; every later one finds "w" and fails
			mixed[i] = Op{Kind: OpCAS, Key: key, Old: "v", Val: "w"}
		}
	}
	for _, cfg := range []struct {
		name    string
		workers int
		audit   AuditConfig
		ops     []Op
		budgets [3]float64
	}{
		{"audit off, 1 worker", 1, AuditConfig{Disabled: true}, puts, [3]float64{1, 1, 0}},
		{"audit on, 1 worker", 1, AuditConfig{QueueDepth: 1 << 16}, mixed, [3]float64{1, 1, 0}},
		{"audit off, 2 workers", 2, AuditConfig{Disabled: true}, puts, [3]float64{9, 3, 2}},
		{"audit on, 2 workers", 2, AuditConfig{QueueDepth: 1 << 16}, mixed, [3]float64{9, 3, 2}},
	} {
		s := New(Config{Shards: 1, WorkersPerShard: cfg.workers, Audit: cfg.audit})
		ops := cfg.ops
		for i, tc := range []struct {
			name string
			call func()
		}{
			{"256-op DoBatch", func() { s.DoBatch(ctx, ops) }},
			{"1-op DoBatch", func() { s.DoBatch(ctx, ops[:1]) }},
			{"Do", func() { s.Do(ctx, ops[0]) }},
		} {
			// Materialise the keys — a first put grows the map — and, with
			// the audit on, every key's window: its ops slice reaches a
			// window's capacity on the 16th op, and the auditor has taken
			// that op once it has checked a window per key.
			s.DoBatch(ctx, puts)
			for n := 0; n < 16; n++ {
				tc.call()
			}
			for !cfg.audit.Disabled && s.Stats().Audit.WindowsChecked < int64(len(puts)) {
				time.Sleep(time.Millisecond)
			}
			budget := cfg.budgets[i]
			if got := testing.AllocsPerRun(200, tc.call); got > budget {
				t.Errorf("%s, %s allocates %.1f objects per call, budget %.0f", cfg.name, tc.name, got, budget)
			} else {
				t.Logf("%s, %s: %.1f objects per call (budget %.0f)", cfg.name, tc.name, got, budget)
			}
		}
		s.Close()
		if st := s.Stats().Audit; st.Violations != 0 || (!cfg.audit.Disabled && st.WindowsChecked == 0) {
			t.Errorf("%s: audit %+v, want windows checked and none violated", cfg.name, st)
		}
	}
}
