package service

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/spec"
)

func testConfig() Config {
	return Config{Shards: 2, WorkersPerShard: 2, QueueDepth: 64, MaxBatch: 8,
		Audit: AuditConfig{WindowOps: 8}}
}

func TestBasicOps(t *testing.T) {
	s := New(testConfig())
	ctx := context.Background()

	if _, ok, err := s.Get(ctx, "a"); err != nil || ok {
		t.Fatalf("get missing = ok=%v err=%v, want absent", ok, err)
	}
	if err := s.Put(ctx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s.Get(ctx, "a"); err != nil || !ok || v != "1" {
		t.Fatalf("get a = (%q, %v, %v), want (1, true, nil)", v, ok, err)
	}
	if ok, err := s.CAS(ctx, "a", "1", "2"); err != nil || !ok {
		t.Fatalf("cas a 1->2 = (%v, %v), want success", ok, err)
	}
	if ok, err := s.CAS(ctx, "a", "1", "3"); err != nil || ok {
		t.Fatalf("cas a 1->3 = (%v, %v), want failure", ok, err)
	}
	// CAS on a missing key matches the empty string.
	if ok, err := s.CAS(ctx, "fresh", "", "init"); err != nil || !ok {
		t.Fatalf("cas missing ''->init = (%v, %v), want success", ok, err)
	}
	if v, _, _ := s.Get(ctx, "fresh"); v != "init" {
		t.Fatalf("get fresh = %q, want init", v)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != ErrClosed {
		t.Fatalf("second close = %v, want ErrClosed", err)
	}
	if _, err := s.Do(ctx, Op{Kind: OpGet, Key: "a"}); err != ErrClosed {
		t.Fatalf("do after close = %v, want ErrClosed", err)
	}
	if _, err := s.DoBatch(ctx, []Op{{Kind: OpGet, Key: "a"}}); err != ErrClosed {
		t.Fatalf("dobatch after close = %v, want ErrClosed", err)
	}

	st := s.Stats()
	if st.Audit.Violations != 0 {
		t.Fatalf("audit violations = %d: %v", st.Audit.Violations, st.Audit.ViolationSamples)
	}
	if st.TotalOps != 7 {
		t.Fatalf("total ops = %d, want 7", st.TotalOps)
	}
}

func TestDoBatch(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()

	var ops []Op
	for i := 0; i < 20; i++ {
		ops = append(ops, Op{Kind: OpPut, Key: fmt.Sprintf("k%d", i), Val: fmt.Sprintf("v%d", i)})
	}
	if _, err := s.DoBatch(ctx, ops); err != nil {
		t.Fatal(err)
	}
	ops = ops[:0]
	for i := 0; i < 20; i++ {
		ops = append(ops, Op{Kind: OpGet, Key: fmt.Sprintf("k%d", i)})
	}
	res, err := s.DoBatch(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("got %d results, want 20", len(res))
	}
	for i, r := range res {
		if !r.OK || r.Val != fmt.Sprintf("v%d", i) {
			t.Errorf("result %d = %+v, want v%d", i, r, i)
		}
	}
}

// TestConcurrentLoad hammers the store from real goroutines (run under
// -race) and then cross-checks the full client-observed history for
// linearizability per key with spec.CheckPartitioned — an end-to-end check
// that is independent of the built-in auditor.
func TestConcurrentLoad(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	s := New(cfg)
	ctx := context.Background()

	const clients, opsPerClient, keys = 8, 30, 12
	var clock atomic.Int64
	type timedOp struct {
		op  spec.CASOp
		key string
	}
	histories := make([][]timedOp, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 77))
			for i := 0; i < opsPerClient; i++ {
				key := fmt.Sprintf("k%d", rng.IntN(keys))
				call := clock.Add(1)
				var sop spec.CASOp
				switch rng.IntN(3) {
				case 0:
					v, _, err := s.Get(ctx, key)
					if err != nil {
						t.Errorf("get: %v", err)
						return
					}
					sop = spec.CASOp{Kind: spec.Read, Val: v}
				case 1:
					val := fmt.Sprintf("c%d-%d", c, i)
					if err := s.Put(ctx, key, val); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					sop = spec.CASOp{Kind: spec.Write, Val: val}
				default:
					old, _, _ := s.Get(ctx, key)
					// The get above is part of the history too.
					mid := clock.Add(1)
					sop = spec.CASOp{Proc: c, Call: call, Ret: mid, Kind: spec.Read, Val: old}
					histories[c] = append(histories[c], timedOp{op: sop, key: key})
					call = clock.Add(1)
					ok, err := s.CAS(ctx, key, old, fmt.Sprintf("c%d-%d", c, i))
					if err != nil {
						t.Errorf("cas: %v", err)
						return
					}
					sop = spec.CASOp{Kind: spec.CAS, Old: old, Val: fmt.Sprintf("c%d-%d", c, i), OK: ok}
				}
				sop.Proc, sop.Call, sop.Ret = c, call, clock.Add(1)
				histories[c] = append(histories[c], timedOp{op: sop, key: key})
			}
		}(c)
	}
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Built-in online auditor must be clean.
	st := s.Stats()
	if st.Audit.Violations != 0 {
		t.Fatalf("online audit violations: %v", st.Audit.ViolationSamples)
	}
	if st.Audit.WindowsChecked == 0 {
		t.Fatal("online auditor checked no windows")
	}
	if st.TotalOps == 0 || st.Batches == 0 {
		t.Fatalf("stats empty: ops=%d batches=%d", st.TotalOps, st.Batches)
	}

	// Independent client-side check: partition the observed history by key
	// and verify each partition is linearizable from the known "" initial
	// value. Per-key op counts stay well under spec.MaxWindowOps (the run is
	// seeded, so the per-key distribution is deterministic).
	var all []spec.KeyedOp[spec.CASOp]
	for _, h := range histories {
		for _, to := range h {
			all = append(all, spec.KeyedOp[spec.CASOp]{Key: to.key, Op: to.op})
		}
	}
	for _, kv := range spec.CheckPartitioned(spec.CASRegisterModel{Initial: ""}, all, spec.MaxWindowOps) {
		if kv.Result != spec.Linearizable {
			t.Errorf("key %s: client-side history %v (%d ops)", kv.Key, kv.Result, kv.Ops)
		}
	}
}

// TestBackpressure floods a 1-deep queue with concurrent submissions: all
// of them must commit (blocking, not dropping) and the audit must be clean.
func TestBackpressure(t *testing.T) {
	s := New(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 1, MaxBatch: 1,
		Audit: AuditConfig{WindowOps: 8}})
	ctx := context.Background()
	const n = 64
	var wg sync.WaitGroup
	var committed atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(ctx, "hot", fmt.Sprintf("v%d", i)); err == nil {
				committed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if committed.Load() != n {
		t.Fatalf("committed %d of %d puts", committed.Load(), n)
	}
	st := s.Stats()
	if st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
	if st.Ops["put"] != n {
		t.Fatalf("put count = %d, want %d", st.Ops["put"], n)
	}
}

func TestDoContextCanceled(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A canceled context either loses every race (success), wins the
	// enqueue select (ErrSaturated: never enqueued), or wins the completion
	// wait (ErrDeadline: enqueued, may still commit); blocking forever is
	// not an option.
	_, err := s.Do(ctx, Op{Kind: OpPut, Key: "k", Val: "v"})
	if err != nil && err != ErrSaturated && err != ErrDeadline {
		t.Fatalf("do = %v, want nil, ErrSaturated or ErrDeadline", err)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []OpKind{OpGet, OpPut, OpCAS} {
		got, err := KindOf(k.String())
		if err != nil || got != k {
			t.Errorf("KindOf(%s) = (%v, %v)", k, got, err)
		}
	}
	if _, err := KindOf("bump"); err == nil {
		t.Error("KindOf(bump) should fail")
	}
	if s := OpKind(9).String(); s != "OpKind(9)" {
		t.Errorf("unknown kind string = %q", s)
	}
}

func TestStatsShape(t *testing.T) {
	cfg := testConfig()
	cfg.Audit.SampleFraction = 0.5
	s := New(cfg)
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := s.Put(ctx, fmt.Sprintf("k%d", i%10), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Shards != cfg.Shards || st.WorkersPerShard != cfg.WorkersPerShard {
		t.Fatalf("shape: %+v", st)
	}
	if st.Ops["put"] != 100 || st.TotalOps != 100 {
		t.Fatalf("ops: %+v", st.Ops)
	}
	lat := st.Latency["put"]
	if lat.Count != 100 || lat.MeanNs <= 0 || lat.P50Ns <= 0 || lat.P99Ns < lat.P50Ns {
		t.Fatalf("latency summary: %+v", lat)
	}
	var committed int64
	for _, c := range st.Committed {
		committed += c
	}
	if committed != st.Batches {
		t.Fatalf("committed positions %d != batches %d", committed, st.Batches)
	}
	// Sampling by key hash: with fraction 0.5 over 10 keys, sampled ops are
	// a strict, non-empty subset in expectation; just require <= total.
	if st.Audit.SampledOps > 100 {
		t.Fatalf("sampled %d > 100 ops", st.Audit.SampledOps)
	}
}

// TestGetDoesNotMaterializeKeys: a get (or failed cas) on a missing key
// must not create it — OK must stay false until a write lands.
func TestGetDoesNotMaterializeKeys(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, ok, err := s.Get(ctx, "ghost"); err != nil || ok {
			t.Fatalf("probe %d: get ghost = ok=%v err=%v, want absent", i, ok, err)
		}
	}
	if ok, err := s.CAS(ctx, "ghost", "nope", "x"); err != nil || ok {
		t.Fatalf("failed cas = ok=%v err=%v", ok, err)
	}
	if _, ok, _ := s.Get(ctx, "ghost"); ok {
		t.Fatal("failed cas materialized the key")
	}
	// A successful cas from "" is a write and does materialize it.
	if ok, err := s.CAS(ctx, "ghost", "", "born"); err != nil || !ok {
		t.Fatalf("cas ''->born = ok=%v err=%v", ok, err)
	}
	if v, ok, _ := s.Get(ctx, "ghost"); !ok || v != "born" {
		t.Fatalf("get ghost = (%q, %v), want (born, true)", v, ok)
	}
}

// TestLogTruncation: the serving tier must release committed log cells
// once every worker's replica has passed them.
func TestLogTruncation(t *testing.T) {
	s := New(Config{Shards: 1, WorkersPerShard: 2, MaxBatch: 4,
		Audit: AuditConfig{WindowOps: 8}})
	ctx := context.Background()
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Put(ctx, fmt.Sprintf("k%d", i%7), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	if base := sh.log.Base(); base == 0 {
		t.Fatal("log never truncated after 500 sequential ops")
	}
	st := s.Stats()
	if st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
}

func TestInvalidOpKindRejected(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Do(ctx, Op{Kind: OpKind(9), Key: "k"}); err == nil {
		t.Fatal("Do with invalid kind should error, not panic a worker")
	}
	if _, err := s.DoBatch(ctx, []Op{{Kind: OpPut, Key: "k", Val: "v"}, {Kind: OpKind(9)}}); err == nil {
		t.Fatal("DoBatch with invalid kind should error")
	}
	// The store still serves after rejecting bad ops.
	if err := s.Put(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
}
