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
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sched"
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
// released tail and the prefix must add up to one signal on its channel (a
// second would block the worker on the channel's full buffer and hang the
// run), and the in-flight gauge must return to zero.
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
// must count once whoever wins, so done is signalled exactly once and only
// after the last distinct answer, and the submission comes back to the pool
// clean.
func TestFreeModeSubmissionCountdown(t *testing.T) {
	rt := newFreeRuntime()
	for round := 0; round < 200; round++ {
		const n, sent = 8, 5
		sub := rt.submission(n)
		ents := make([]batchEntry, sent)
		for i := range ents {
			ents[i].req, ents[i].res = &sub.reqs[i], Result{Val: fmt.Sprint(i), OK: true}
		}
		awaited := make(chan error, 1)
		go func() { awaited <- rt.await(nil, context.Background(), sub, sent) }()
		var wins atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < sent-1; i++ {
					if ents[i].answer(rt) {
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
		if !ents[sent-1].answer(rt) || ents[sent-1].answer(rt) {
			t.Fatal("the last answer must win once and lose once")
		}
		if err := <-awaited; err != nil {
			t.Fatal(err)
		}
		if wins.Load() != sent-1 || sub.pending.Load() != 0 || len(sub.done) != 0 {
			t.Fatalf("%d wins over %d requests, %d still pending, %d signals left",
				wins.Load(), sent-1, sub.pending.Load(), len(sub.done))
		}
		for i := range ents {
			if want := fmt.Sprint(i); sub.reqs[i].res.Val != want {
				t.Fatalf("request %d answered %q, want %q", i, sub.reqs[i].res.Val, want)
			}
		}
		rt.recycle(sub)
	}
}

// TestFreeModeAbandonedSubmissionNeverReused: a call that returns
// ErrDeadline leaves its submission to the workers, which answer it when
// its op commits later. The caller's next call must get a submission of
// its own: on the abandoned one, the late answer would wake it early with
// the abandoned op's result.
func TestFreeModeAbandonedSubmissionNeverReused(t *testing.T) {
	fs := fault.NewSet()
	s := New(Config{Shards: 1, WorkersPerShard: 1, Faults: fs})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		// Stall the put's window past its deadline, and the get's window
		// too, so that the put's late answer lands while the get waits.
		// The deadline leaves the put time to be enqueued first: the
		// enqueue's select may pick an expired context over a free slot
		// and return ErrSaturated.
		fs.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Delay, Delay: int64(50 * time.Millisecond), Count: 2})
		dctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		_, err := s.Do(dctx, Op{Kind: OpPut, Key: "k", Val: fmt.Sprintf("v%d", i)})
		cancel()
		if err != ErrDeadline {
			t.Fatalf("call %d: %v, want ErrDeadline", i, err)
		}
		res, err := s.Do(ctx, Op{Kind: OpGet, Key: "unwritten"})
		if err != nil || res != (Result{}) {
			t.Fatalf("call %d: the get after an abandoned put returned %+v, %v, want a miss", i, res, err)
		}
	}
	if val, _, err := s.Get(ctx, "k"); err != nil || val != "v4" {
		t.Fatalf("k = %q, %v: the abandoned puts did not all commit", val, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
}

// TestFreeModeFinishRerunSparesRecycledCalls: a recovering incarnation
// re-runs finish over the batch its predecessor was answering, or commits
// the requests its predecessor dequeued but never put into a batch. By then
// the callers answered first may have recycled their submissions into new
// calls; the recovery must answer none of those.
func TestFreeModeFinishRerunSparesRecycledCalls(t *testing.T) {
	s := New(Config{Shards: 1, WorkersPerShard: 1, Audit: AuditConfig{Disabled: true}})
	ctx := context.Background()
	ops := []Op{{Kind: OpPut, Key: "a", Val: "1"}, {Kind: OpPut, Key: "b", Val: "2"}}
	if _, err := s.DoBatch(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sl := s.shards[0].slots[0]
	b := sl.retired[len(sl.retired)-1]
	sl.retired = sl.retired[:len(sl.retired)-1]
	// The call's ops may have been split over two windows; the last holds
	// at least one of them.
	sub := b.ents[0].req.sub
	for i := range b.ents {
		if b.ents[i].req.sub != sub || len(sub.reqs) != len(ops) {
			t.Fatalf("last batch's entry %d answers another call", i)
		}
	}
	// The caller's next call takes the same slab.
	sub.reset(len(ops))
	spared := func(what string) {
		t.Helper()
		if got := sub.pending.Load(); got != int64(len(ops)) || len(sub.done) != 0 {
			t.Fatalf("%s answered the new call: %d of %d pending, %d signals", what, got, len(ops), len(sub.done))
		}
		for i := range sub.reqs {
			if sub.reqs[i].res != (Result{}) {
				t.Fatalf("%s: request %d of the new call holds %+v", what, i, sub.reqs[i].res)
			}
		}
	}
	// As if the incarnation had crashed after its last window: that window
	// is in a batch already, so nothing is left to commit.
	pos := sl.rep.Pos()
	sl.recoverPrev(sched.FreeProc(0))
	if sl.rep.Pos() != pos {
		t.Fatalf("recovery committed the last window again: position %d → %d", pos, sl.rep.Pos())
	}
	spared("recovery with no batch in flight")
	// As if it had crashed while answering its last batch.
	sl.inflight = b
	sl.recoverPrev(sched.FreeProc(0))
	spared("re-run finish")
}

// TestFreeModeLaggingReplicaAppliesOwnCopies: with one slot stalled, the
// other commits a run of calls from one caller, whose slab is recycled and
// overwritten with different ops by each call. The stalled slot applies
// those batches only afterwards, and must still apply what was committed,
// not what the slab holds by then.
func TestFreeModeLaggingReplicaAppliesOwnCopies(t *testing.T) {
	fs := fault.NewSet()
	fs.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Delay, Delay: int64(100 * time.Millisecond)})
	s := New(Config{Shards: 1, WorkersPerShard: 2, Faults: fs})
	ctx := context.Background()
	stalled := make(chan error, 1)
	go func() { _, err := s.Do(ctx, Op{Kind: OpPut, Key: "stall", Val: "x"}); stalled <- err }()
	for fs.Stats()[FaultWorkerPreCommit].Acted == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ops := make([]Op, 4)
	for call := 0; call < 50; call++ {
		for j := range ops {
			ops[j] = Op{Kind: OpPut, Key: fmt.Sprintf("k%d-%d", call, j), Val: fmt.Sprintf("v%d", call)}
		}
		if _, err := s.DoBatch(ctx, ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := s.shards[0].slots[0].rep, s.shards[0].slots[1].rep
	if a.Pos() != b.Pos() {
		t.Fatalf("replicas at positions %d and %d after close", a.Pos(), b.Pos())
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatalf("replicas diverged: %d keys and %d keys", len(a.State().keys), len(b.State().keys))
	}
	if n := len(a.State().keys); n != 1+50*len(ops) {
		t.Fatalf("%d keys, want %d", n, 1+50*len(ops))
	}
	if st := s.Stats(); st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}
}

// TestFreeModeBatchReuseWaitsForFloor: a finished batch becomes free for
// reuse only once every live slot's replica has passed its log position;
// a condemned slot does not hold it back, a freed batch is cleared, and
// the free list holds at most maxFreeEntries entries.
func TestFreeModeBatchReuseWaitsForFloor(t *testing.T) {
	s := New(Config{Shards: 1, WorkersPerShard: 3, Audit: AuditConfig{Disabled: true}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	p := sched.FreeProc(0)
	sh := s.shards[0]
	sl := sh.slots[0]
	r := &request{op: Op{Kind: OpPut, Key: "k", Val: "v"}}
	for pos := 0; pos < 10; pos++ {
		b := sl.newBatch([]*request{r})
		b.pos = pos
		sl.retire(b)
	}
	for _, tc := range []struct {
		name      string
		positions [3]int64
		condemn   int // slot to condemn, or -1
		floor     int
	}{
		{"slowest at 4", [3]int64{10, 4, 7}, -1, 4},
		{"slowest at 4 again", [3]int64{10, 4, 7}, -1, 4},
		{"slowest condemned", [3]int64{10, 4, 7}, 1, 7},
		{"all past", [3]int64{10, 10, 10}, -1, 10},
	} {
		for i, pos := range tc.positions {
			sh.slots[i].committed.Write(p, pos)
		}
		if tc.condemn >= 0 {
			sh.slots[tc.condemn].condemned.Store(true)
		}
		floor := sh.truncate(p)
		sl.reclaim(floor)
		if floor != tc.floor {
			t.Fatalf("%s: floor %d, want %d", tc.name, floor, tc.floor)
		}
		if len(sl.free) != tc.floor || len(sl.retired) != 10-tc.floor {
			t.Fatalf("%s: %d free and %d retired, want %d and %d", tc.name, len(sl.free), len(sl.retired), tc.floor, 10-tc.floor)
		}
		for _, b := range sl.free {
			if b.pos >= floor {
				t.Fatalf("%s: batch at %d is free with a live replica at %d", tc.name, b.pos, floor)
			}
			if len(b.ents) != 0 || b.ents[:1][0].req != nil || b.ents[:1][0].op != (Op{}) {
				t.Fatalf("%s: free batch at %d still holds its ops", tc.name, b.pos)
			}
		}
		for _, b := range sl.retired {
			if b.pos < floor {
				t.Fatalf("%s: batch at %d retired below the floor %d", tc.name, b.pos, floor)
			}
		}
	}
	if b := sl.newBatch([]*request{r}); b.ents[0].req != r || len(sl.free) != 9 {
		t.Fatalf("newBatch did not reuse a free batch")
	}
	// A lag of full windows twice the bound long frees only the bound's worth.
	window := make([]*request, 64)
	for i := range window {
		window[i] = r
	}
	for pos := 10; pos < 10+2*maxFreeEntries/len(window); pos++ {
		b := sl.newBatch(window)
		b.pos = pos
		sl.retire(b)
	}
	sl.reclaim(1 << 30)
	held := 0
	for _, b := range sl.free {
		held += cap(b.ents)
	}
	if held != sl.freeEnts || held > maxFreeEntries || held < maxFreeEntries-len(window) {
		t.Fatalf("free list holds %d entries (counted %d), want at most %d and at least %d", held, sl.freeEnts, maxFreeEntries, maxFreeEntries-len(window))
	}
}
