// Free-mode stress suite for the serving tier, in the style of
// internal/memory's free-mode suite: every public entry point hammered
// from real goroutines under -race (CI runs a dedicated race pass over
// these tests), verifying that the runtime seam left the free path's
// concurrency behavior intact.
package service

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestFreeModeHammer drives mixed single and batched traffic, concurrent
// Stats polling, and a graceful close from 8 goroutines.
func TestFreeModeHammer(t *testing.T) {
	s := New(Config{Shards: 4, WorkersPerShard: 2, QueueDepth: 16, MaxBatch: 8,
		Audit: AuditConfig{WindowOps: 8}})
	ctx := context.Background()
	const clients, opsPerClient = 8, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 99))
			for i := 0; i < opsPerClient; i++ {
				key := fmt.Sprintf("k%d", rng.IntN(16))
				switch rng.IntN(4) {
				case 0:
					if err := s.Put(ctx, key, fmt.Sprintf("c%d-%d", c, i)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 1:
					if _, _, err := s.Get(ctx, key); err != nil {
						t.Errorf("get: %v", err)
						return
					}
				case 2:
					old, _, _ := s.Get(ctx, key)
					if _, err := s.CAS(ctx, key, old, fmt.Sprintf("c%d-%d", c, i)); err != nil {
						t.Errorf("cas: %v", err)
						return
					}
				default:
					ops := make([]Op, 4)
					for j := range ops {
						ops[j] = Op{Kind: OpPut, Key: fmt.Sprintf("k%d", rng.IntN(16)), Val: "b"}
					}
					if _, err := s.DoBatch(ctx, ops); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
				}
			}
		}(c)
	}
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for i := 0; i < 50; i++ {
			_ = s.Stats()
		}
	}()
	wg.Wait()
	<-statsDone
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
	if st.TotalOps == 0 {
		t.Fatal("no ops served")
	}
}

// TestFreeModeCloseRace races Close against in-flight submissions: every
// op must either commit normally or fail with ErrClosed, and the store
// must drain cleanly either way.
func TestFreeModeCloseRace(t *testing.T) {
	for round := 0; round < 10; round++ {
		s := New(Config{Shards: 2, WorkersPerShard: 2, QueueDepth: 4, MaxBatch: 4,
			Audit: AuditConfig{WindowOps: 4}})
		ctx := context.Background()
		var wg sync.WaitGroup
		var served, rejected atomic.Int64
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					_, err := s.Do(ctx, Op{Kind: OpPut, Key: fmt.Sprintf("k%d", i%8), Val: "v"})
					switch err {
					case nil:
						served.Add(1)
					case ErrClosed:
						rejected.Add(1)
						return
					default:
						t.Errorf("do: %v", err)
						return
					}
				}
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		wg.Wait()
		if err := s.Close(); err != ErrClosed {
			t.Fatalf("second close = %v, want ErrClosed", err)
		}
		st := s.Stats()
		if st.Audit.Violations != 0 {
			t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
		}
		if served.Load() != st.TotalOps {
			t.Fatalf("served %d acks but stats count %d commits", served.Load(), st.TotalOps)
		}
	}
}

// TestFreeModeCrashRecoveryHammer injects worker crashes (pre- and
// post-commit) under full mixed load with supervision on: every op must
// still be answered exactly once — a crash costs latency, never an answer —
// and the restart accounting must show the recoveries actually happened.
// Crash budgets are sized so that even if every injected crash lands on one
// slot, the breaker never trips (6 crashes < MaxRestarts 8). The batches are
// wider than a grant window and span both shards, so one submission's
// requests sit in several workers' batches when a crash lands, and the
// successor that finishes an inherited batch answers part of a submission
// whose other parts other workers answer: the caller must wake once, after
// all of them, with every result written.
func TestFreeModeCrashRecoveryHammer(t *testing.T) {
	fs := fault.NewSet()
	fs.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Crash, After: 3, Count: 3})
	fs.Arm(FaultWorkerPostCommit, fault.Rule{Action: fault.Crash, After: 5, Count: 3})
	s := New(Config{Shards: 2, WorkersPerShard: 2, QueueDepth: 8, MaxBatch: 4,
		Audit: AuditConfig{WindowOps: 8},
		Supervise: SuperviseConfig{Enabled: true, MaxRestarts: 8,
			BackoffBase: int64(100 * time.Microsecond), BackoffCap: int64(5 * time.Millisecond)},
		Faults: fs})
	ctx := context.Background()
	var wg sync.WaitGroup
	var submitted atomic.Int64
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 7))
			for i := 0; i < 150; i++ {
				key := fmt.Sprintf("k%d", rng.IntN(8))
				if rng.IntN(3) == 0 {
					ops := make([]Op, 6)
					for j := range ops {
						ops[j] = Op{Kind: OpPut, Key: fmt.Sprintf("k%d", rng.IntN(8)), Val: fmt.Sprintf("c%d-%d", c, i)}
					}
					res, err := s.DoBatch(ctx, ops)
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					for j, r := range res {
						if !r.OK || r.Val != ops[j].Val {
							t.Errorf("batch result %d = %+v, want the put's own value %q", j, r, ops[j].Val)
						}
					}
					submitted.Add(int64(len(ops)))
				} else {
					if _, err := s.Do(ctx, Op{Kind: OpPut, Key: key, Val: "v"}); err != nil {
						t.Errorf("do: %v", err)
						return
					}
					submitted.Add(1)
				}
				if i%40 == 0 {
					_ = s.Stats()
				}
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
	if st.TotalOps != submitted.Load() {
		t.Fatalf("submitted %d ops but stats count %d commits", submitted.Load(), st.TotalOps)
	}
	if st.Supervision.Restarts == 0 {
		t.Error("crashes were armed but no worker was ever restarted")
	}
	if st.Supervision.Condemned != 0 {
		t.Fatalf("%d slots condemned; crash budget should never trip the breaker", st.Supervision.Condemned)
	}
	var acted int64
	for _, pt := range []string{FaultWorkerPreCommit, FaultWorkerPostCommit} {
		acted += st.Faults[pt].Acted
	}
	if acted == 0 {
		t.Error("no armed crash ever fired; the hammer is vacuous")
	}
}

// TestFreeModeCrashCloseRace races Close against in-flight traffic while
// injected crashes kill and respawn workers: every op must either be
// answered or rejected with ErrClosed, and recovery accounting must stay
// exact (acked ops == committed ops) through the drain.
func TestFreeModeCrashCloseRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		fs := fault.NewSet()
		fs.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Crash, After: 2, Count: 2})
		fs.Arm(FaultWorkerPostCommit, fault.Rule{Action: fault.Crash, After: 4, Count: 2})
		s := New(Config{Shards: 2, WorkersPerShard: 1, QueueDepth: 4, MaxBatch: 4,
			Audit: AuditConfig{WindowOps: 4},
			Supervise: SuperviseConfig{Enabled: true, MaxRestarts: 8,
				BackoffBase: int64(50 * time.Microsecond), BackoffCap: int64(time.Millisecond)},
			Faults: fs})
		ctx := context.Background()
		var wg sync.WaitGroup
		var served atomic.Int64
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 80; i++ {
					// Odd clients submit 3-op batches: the submit bracket holds
					// Close out for the whole batch, so a batch is enqueued
					// entirely or refused entirely and the ack count stays exact.
					ops := []Op{{Kind: OpPut, Key: fmt.Sprintf("k%d", i%8), Val: "v"}}
					var err error
					if c%2 == 1 {
						ops = append(ops, Op{Kind: OpGet, Key: fmt.Sprintf("k%d", (i+1)%8)},
							Op{Kind: OpPut, Key: fmt.Sprintf("k%d", (i+2)%8), Val: "w"})
						_, err = s.DoBatch(ctx, ops)
					} else {
						_, err = s.Do(ctx, ops[0])
					}
					switch err {
					case nil:
						served.Add(int64(len(ops)))
					case ErrClosed:
						return
					default:
						t.Errorf("submit: %v", err)
						return
					}
				}
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round) * 200 * time.Microsecond)
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		wg.Wait()
		st := s.Stats()
		if st.Audit.Violations != 0 {
			t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
		}
		if served.Load() != st.TotalOps {
			t.Fatalf("served %d acks but stats count %d commits", served.Load(), st.TotalOps)
		}
	}
}

// TestFreeModeDeadlineRetry exercises the deadline + idempotent-retry
// contract on the free runtime: clients race tiny context deadlines against
// workers slowed by injected commit delays, retrying expired calls with the
// same op ID and finishing each logical op with an undeadlined call. Dedup
// must collapse the retries: each client's key must end at its last written
// value (a replayed older write would reorder history), and the audit must
// stay silent.
func TestFreeModeDeadlineRetry(t *testing.T) {
	fs := fault.NewSet()
	fs.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Delay, Delay: int64(200 * time.Microsecond), Count: -1})
	s := New(Config{Shards: 1, WorkersPerShard: 2, QueueDepth: 8, MaxBatch: 4,
		Audit:     AuditConfig{WindowOps: 8},
		Supervise: SuperviseConfig{Enabled: true},
		Faults:    fs})
	ctx := context.Background()
	const clients, opsPerClient = 4, 25
	var deadlines atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("client%d", c)
			for i := 0; i < opsPerClient; i++ {
				op := Op{Kind: OpPut, Key: key, Val: fmt.Sprintf("v%d", i),
					ID: uint64(c+1)<<32 | uint64(i+1)}
				var err error
				for try := 0; try < 3; try++ {
					tctx, cancel := context.WithTimeout(ctx, 50*time.Microsecond)
					_, err = s.Do(tctx, op)
					cancel()
					if err == nil {
						break
					}
					if err != ErrDeadline && err != ErrSaturated {
						t.Errorf("do: %v", err)
						return
					}
					deadlines.Add(1)
				}
				if err != nil {
					// The op may or may not have committed; the undeadlined
					// retry settles it exactly once either way.
					if _, err = s.Do(ctx, op); err != nil {
						t.Errorf("final do: %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		val, ok, err := s.Get(ctx, fmt.Sprintf("client%d", c))
		if err != nil || !ok {
			t.Fatalf("get client%d: val=%q ok=%v err=%v", c, val, ok, err)
		}
		if want := fmt.Sprintf("v%d", opsPerClient-1); val != want {
			t.Errorf("client%d final value %q, want %q — a retried older write replayed", c, val, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
	if deadlines.Load() == 0 {
		t.Error("no call ever hit its deadline; the retry path went unexercised")
	}
}

// TestFreeModeBatchAndStatsUnderLoad overlaps DoBatch with Stats and with
// single-op traffic on the same keys (the read path of Stats uses the
// lock-free committed registers; -race must stay silent).
func TestFreeModeBatchAndStatsUnderLoad(t *testing.T) {
	s := New(Config{Shards: 1, WorkersPerShard: 2, QueueDepth: 8, MaxBatch: 4,
		Audit: AuditConfig{WindowOps: 4}})
	defer s.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ops := []Op{
					{Kind: OpPut, Key: "shared", Val: fmt.Sprintf("c%d-%d", c, i)},
					{Kind: OpGet, Key: "shared"},
				}
				if _, err := s.DoBatch(ctx, ops); err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				_ = s.Stats()
			}
		}(c)
	}
	wg.Wait()
}

// TestFreeModePartialBatch: a batch whose tail is refused mid-submission —
// the shard queue is full behind a stalled worker and the caller's context
// is cancelled — returns ErrSaturated, and exactly the enqueued prefix
// commits. The caller leaves while the prefix is still unanswered, so the
// workers' completions count the submission down with nobody waiting: the
// released tail and the prefix must add up to one close of its channel (a
// second would panic the worker, and unsupervised that fails the run), and
// the in-flight gauge must return to zero.
func TestFreeModePartialBatch(t *testing.T) {
	const depth, n = 4, 64
	fs := fault.NewSet()
	fs.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Delay, Delay: int64(50 * time.Millisecond)})
	s := New(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: depth, MaxBatch: 4,
		Audit: AuditConfig{WindowOps: 8}, Faults: fs})
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: fmt.Sprintf("k%02d", i), Val: "v", ID: uint64(i + 1)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// The worker sleeps in its first commit (or has yet to start); once
		// the queue is full the submitter is blocked on the next send.
		for s.Stats().QueueDepth[0] < depth {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	if _, err := s.DoBatch(ctx, ops); err != ErrSaturated {
		t.Fatalf("DoBatch = %v, want ErrSaturated", err)
	}
	// The gets queue behind the prefix, so their answers see it committed.
	gets := make([]Op, n)
	for i := range gets {
		gets[i] = Op{Kind: OpGet, Key: ops[i].Key}
	}
	res, err := s.DoBatch(context.Background(), gets)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for sent < n && res[sent].OK {
		sent++
	}
	for i := sent; i < n; i++ {
		if res[i].OK {
			t.Fatalf("op %d committed but op %d did not: not a prefix", i, sent)
		}
	}
	if sent < depth || sent == n {
		t.Fatalf("%d of %d ops committed, want a full queue's worth or more, and not all", sent, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TotalOps != int64(sent+n) {
		t.Errorf("stats count %d commits, want %d puts + %d gets", st.TotalOps, sent, n)
	}
	if v := s.mets.inflight.Value(); v != 0 {
		t.Errorf("in-flight gauge reads %d after the drain", v)
	}
	if st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
}

// TestFreeModeBatchDeadlineReplay: a batch that is fully enqueued but whose
// caller gives up waiting (ErrDeadline) still commits, and a retry with the
// same op IDs is answered from the dedup table with the results of that
// first apply. The cas tells the two apart: applied a second time it would
// find its own new value and fail.
func TestFreeModeBatchDeadlineReplay(t *testing.T) {
	fs := fault.NewSet()
	fs.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Delay, Delay: int64(30 * time.Millisecond)})
	s := New(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 8, MaxBatch: 4,
		Audit: AuditConfig{WindowOps: 8}, Faults: fs})
	ops := []Op{
		{Kind: OpPut, Key: "k", Val: "v1", ID: 1},
		{Kind: OpCAS, Key: "k", Old: "v1", Val: "v2", ID: 2},
		{Kind: OpGet, Key: "k", ID: 3},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	_, err := s.DoBatch(ctx, ops)
	cancel()
	if err != ErrDeadline {
		t.Fatalf("DoBatch under a stalled worker = %v, want ErrDeadline", err)
	}
	res, err := s.DoBatch(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{{Val: "v1", OK: true}, {Val: "v2", OK: true}, {Val: "v2", OK: true}}
	for i := range want {
		if res[i] != want[i] {
			t.Errorf("retried op %d = %+v, want the first apply's %+v", i, res[i], want[i])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if hits := s.mets.dedupHits.Value(); hits != int64(len(ops)) {
		t.Errorf("%d dedup hits, want %d: the retry re-applied", hits, len(ops))
	}
	if st := s.Stats(); st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
}

// TestFreeModeSubmissionCountdown races everything that may take a request
// off a submission's countdown: the caller releasing the tail it never
// enqueued, and several workers answering the same prefix (a crashed
// incarnation's batch is answered again by its successor). Each request
// must count once whoever wins, so the channel closes exactly once — a
// second close panics — and only after the last distinct answer.
func TestFreeModeSubmissionCountdown(t *testing.T) {
	rt := newFreeRuntime()
	for round := 0; round < 200; round++ {
		const n, sent = 8, 5
		sub := newSubmission(n)
		awaited := make(chan error, 1)
		go func() { awaited <- rt.await(nil, context.Background(), sub, sent) }()
		var wins atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < sent-1; i++ {
					if rt.complete(&sub.reqs[i]) {
						wins.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		select {
		case <-awaited:
			t.Fatal("await returned with a request of the prefix unanswered")
		case <-time.After(100 * time.Microsecond):
		}
		if !rt.complete(&sub.reqs[sent-1]) || rt.complete(&sub.reqs[sent-1]) {
			t.Fatal("the last answer must win once and lose once")
		}
		if err := <-awaited; err != nil {
			t.Fatal(err)
		}
		if wins.Load() != sent-1 || sub.pending.Load() != 0 {
			t.Fatalf("%d wins over %d requests, %d still pending", wins.Load(), sent-1, sub.pending.Load())
		}
	}
}
