// Package service is the free-mode serving tier: it exposes the universal
// construction's replicated log as a sharded key-value/command store served
// by real goroutines under real parallelism.
//
// The controlled-mode stack (internal/sched, internal/sim, internal/explore)
// checks the paper's algorithms under adversarial schedules; this package
// runs the same objects as live linearizable primitives ("free mode" per
// internal/memory). Each shard is a replicated state machine in the style of
// Herlihy's universal construction (internal/universal): a log of write-once
// consensus cells (memory.Once — the compare&swap idiom, consensus number
// +inf) decided by the shard's submitter workers, each of which owns a
// universal.Replica and contends for log positions with batches of client
// commands. The serving path is therefore not a mutex around a map: it is
// the paper's construction, operating at production speed.
//
// Architecture:
//
//	clients ──Do/DoBatch──▶ per-shard bounded queue (backpressure)
//	                              │
//	                  shard workers drain a batch per grant window,
//	                  propose it as ONE log command (universal.Replica.Exec),
//	                  apply the decided log in order, answer the clients
//	                              │
//	                  sampled ops ──▶ online auditor (internal/spec):
//	                  per-key windows checked for linearizability in the
//	                  background while traffic is being served
//
// The online auditor closes the loop with the paper's correctness condition
// (linearizability, Herlihy & Wing [9]): per-key operation windows sampled
// from live traffic are continuously checked by the Wing–Gong search in
// internal/spec. Window boundaries are gap-free by construction — the state
// machine versions every key, so the auditor knows exactly when a window is
// a contiguous slice of a key's history and discards windows around any
// sampling gap instead of risking a false verdict.
package service

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// OpKind enumerates the store's command types.
type OpKind uint8

// The store's commands: read a key, write a key, compare-and-swap a key.
// NumOpKinds is one past the highest valid OpKind — decoders (the HTTP and
// wire front ends) validate kinds against it.
const (
	OpGet OpKind = iota
	OpPut
	OpCAS
	NumOpKinds = 3
)

// String returns the wire name of the op kind.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpCAS:
		return "cas"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// KindOf parses a wire name back into an OpKind.
func KindOf(s string) (OpKind, error) {
	switch s {
	case "get":
		return OpGet, nil
	case "put":
		return OpPut, nil
	case "cas":
		return OpCAS, nil
	default:
		return 0, fmt.Errorf("service: unknown op %q", s)
	}
}

// Op is one client command. Keys behave as registers whose initial value is
// the empty string (a missing key reads as "" with OK=false).
type Op struct {
	Kind OpKind `json:"op"`
	Key  string `json:"key"`
	// Val is the value written by put, or the new value installed by cas.
	Val string `json:"val,omitempty"`
	// Old is the value cas expects to find.
	Old string `json:"old,omitempty"`
	// ID, when non-zero, is a client-assigned operation identity used for
	// exactly-once retry: the replicated state machine remembers the result
	// of the first apply of each ID (up to 4096 IDs per shard, maxDedup,
	// FIFO-evicted) and replays it to retries instead of re-applying them.
	// A client that got ErrDeadline should resubmit the SAME op with the
	// SAME ID — the command may have committed after the wait was abandoned,
	// and only the ID protects a Put or CAS from double-applying.
	ID uint64 `json:"id,omitempty"`
}

// Result is the outcome of one command.
type Result struct {
	// Val is the value read by get (or the current value a failed cas saw).
	Val string `json:"val,omitempty"`
	// OK reports: get — the key exists; put — always true; cas — the swap
	// happened.
	OK bool `json:"ok"`
}

// Config tunes a Store. The zero value gets sensible defaults.
type Config struct {
	// Shards is the number of independent replicated logs. Default 4.
	Shards int
	// WorkersPerShard is the number of submitter workers (each owning one
	// universal.Replica) contending on each shard's log. Default 2.
	WorkersPerShard int
	// QueueDepth bounds each shard's request queue; a full queue blocks
	// submitters (backpressure). Default 1024.
	QueueDepth int
	// MaxBatch caps how many queued commands one worker groups into a
	// single log command per grant window. Default 64.
	MaxBatch int
	// Audit configures the online linearizability auditor.
	Audit AuditConfig
	// Supervise configures worker supervision and crash recovery.
	Supervise SuperviseConfig
	// Faults, when non-nil, arms the store's fault-injection points (see
	// the Fault* constants and internal/fault). A nil set is completely
	// disarmed and free.
	Faults *fault.Set
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	c.Audit = c.Audit.withDefaults()
	c.Supervise = c.Supervise.withDefaults()
	return c
}

// ErrClosed is returned by submissions against a closed (or closing) store.
var ErrClosed = errors.New("service: store is closed")

// ErrDeadline is returned when a completion wait is abandoned because the
// caller's context or deadline expired. The command may still commit after
// the wait is abandoned — the queue slot it occupies is not revoked — so a
// caller that must not double-apply should retry with the same Op.ID.
var ErrDeadline = errors.New("service: deadline exceeded awaiting completion (command may still commit; retry with the same op ID)")

// ErrSaturated is returned when a submission's context expired while the
// shard queue was still full: backpressure outlasted the caller's patience
// and the command was never enqueued. Safe to retry as-is.
var ErrSaturated = errors.New("service: shard queue saturated")

// The store's fault-injection point names (see Config.Faults and
// internal/fault). Each names the semantic instant the point guards.
const (
	// FaultWorkerPreCommit fires just before a worker proposes a batch to
	// the replicated log: a crash here loses the incarnation with the batch
	// undecided, and the successor re-proposes it.
	FaultWorkerPreCommit = "worker.preCommit"
	// FaultWorkerPostCommit fires after the batch is decided but before its
	// side effects (stats, audit records, client completions) are
	// published: a crash here makes the successor finish a batch it never
	// proposed.
	FaultWorkerPostCommit = "worker.postCommit"
	// FaultWorkerPreApply fires at the top of the owner's state-machine
	// apply, before any mutation: a crash here unwinds mid-Exec with the
	// position decided but unapplied on this replica.
	FaultWorkerPreApply = "worker.preApply"
	// FaultQueueSend fires on the submitter side of the shard queue
	// (delay rules model a slow client-to-shard path).
	FaultQueueSend = "queue.send"
	// FaultAuditRecord fires per audit record; drop rules model sampling
	// loss, which the auditor must absorb as window gaps, never as a false
	// verdict.
	FaultAuditRecord = "audit.record"
)

// Store is a sharded, batched, continuously-audited key-value store.
//
// A Store runs on a Runtime: the free runtime (New) serves on real
// goroutines at production speed, the virtual runtime (NewVirtual) serves
// inside a controlled sched.Run where the scheduling policy is a full
// adversary and every run is deterministic.
type Store struct {
	cfg    Config
	rt     Runtime
	rec    *historyRecorder // complete-history capture; nil on the free runtime
	clock  atomic.Int64     // logical time for audit intervals
	shards []*shard
	audit  *auditor                 // nil when auditing is disabled
	faults *fault.Set               // nil when fault injection is disarmed
	mets   *storeMetrics            // always-on observability (see metrics.go)
	tun    atomic.Pointer[Tunables] // live-reloadable knobs (see reload.go)

	joins      []func(*sched.Proc) // one per original worker, in spawn order
	superJoins []func(*sched.Proc) // one per shard supervisor

	// debugDropPuts injects a serving-tier bug for checker canaries: puts
	// on this key are acknowledged but never applied. Set only by in-package
	// test scenarios, before any traffic.
	debugDropPuts string
	// debugNoDedup breaks op-ID deduplication for the must-detect canary:
	// the dedup table is still maintained, but retries fall through and
	// double-apply; debugDoubles counts them at apply time on the owner's
	// replica (the ground truth the inverted canary oracle compares the
	// checker's verdict against).
	debugNoDedup bool
	debugDoubles atomic.Int64
}

// New starts a store on the free runtime with cfg's shards and workers
// running as real goroutines.
func New(cfg Config) *Store { return newStore(cfg, newFreeRuntime()) }

func newStore(cfg Config, rt Runtime) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, rt: rt, faults: cfg.Faults}
	boot := tunablesFrom(cfg)
	s.tun.Store(&boot)
	if vr, ok := rt.(*VirtualRuntime); ok {
		s.rec = vr.rec
	}
	if !cfg.Audit.Disabled {
		s.audit = newAuditor(cfg.Audit, rt)
		s.audit.join = rt.spawn(s.audit.run)
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(s, i))
	}
	_, virtual := rt.(*VirtualRuntime)
	s.mets = newStoreMetrics(s, virtual)
	sup := cfg.Supervise.Enabled
	if sup {
		// Notifiers must exist before any worker spawns: an incarnation's
		// exit defer posts to them. Capacity covers every incarnation the
		// slot can ever have (original + MaxRestarts respawns, each posting
		// once) plus the closing sentinel, clamped for huge restart budgets:
		// the supervisor drains continuously, so past the clamp a post may
		// briefly block a dying incarnation's unwind, never lose a notice.
		perShard := cfg.WorkersPerShard*(cfg.Supervise.MaxRestarts+1) + 1
		if perShard > 1024 {
			perShard = 1024
		}
		for _, sh := range s.shards {
			sh.notify = rt.newNotifier(perShard)
		}
	}
	for _, sh := range s.shards {
		for _, sl := range sh.slots {
			if sup {
				s.joins = append(s.joins, rt.spawn(sl.incarnation()))
			} else {
				s.joins = append(s.joins, rt.spawn(sl.body()))
			}
		}
	}
	if sup {
		for _, sh := range s.shards {
			s.superJoins = append(s.superJoins, rt.spawn(sh.supervise))
		}
		rt.provision(cfg.Supervise.spares(cfg.Shards * cfg.WorkersPerShard))
	}
	return s
}

// firePoint fires the named fault point on p's behalf and performs the
// decided outcome: a crash unwinds p (never returns), a delay sleeps on the
// runtime clock. It reports whether the guarded action must be dropped.
// With no fault set armed it is a nil check.
func (s *Store) firePoint(p *sched.Proc, name string) bool {
	if s.faults == nil {
		return false
	}
	o := s.faults.Fire(name)
	if o.Crash {
		p.Crash()
	}
	if o.Delay > 0 {
		s.rt.sleep(p, o.Delay)
	}
	return o.Drop
}

// keyHash is inline FNV-1a over the key bytes (the same family as the
// explorer's interning shards), kept allocation-free because it sits on
// the per-op hot path for both shard routing and audit sampling.
func keyHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// ShardIndex is the key→shard routing function, exported so layers above
// the store (internal/cluster's front ends) route ops to shard owners with
// the exact function the store uses internally — a divergent reimplementation
// would silently send ops to the wrong node.
func ShardIndex(key string, shards int) int {
	return int(keyHash(key) % uint32(shards))
}

// shardOf routes a key to its shard.
func (s *Store) shardOf(key string) *shard {
	return s.shards[ShardIndex(key, len(s.shards))]
}

// Metrics returns the store's registry, for mounting on a /metrics endpoint
// (see metrics.WriteProm) or asserting on counter values in oracles.
func (s *Store) Metrics() *metrics.Registry { return s.mets.reg }

// Do submits one command and waits for its linearized result. A full shard
// queue blocks (backpressure) until space frees or ctx is done
// (ErrSaturated — the command was never enqueued, retry as-is); a closed
// store returns ErrClosed. Once enqueued, the wait for completion honors
// ctx: if it expires, Do returns ErrDeadline but the command stays in the
// pipeline and may still commit — retry with the same Op.ID for
// exactly-once semantics. Do is the free-runtime client entry point; on a
// virtual runtime use DoOn (or DoTimeoutOn for deadline-bounded waits)
// from a proc of the store's run.
func (s *Store) Do(ctx context.Context, op Op) (Result, error) {
	return s.do(nil, ctx, op, noTimeout)
}

// DoOn is Do for virtual-runtime clients: p is the submitting proc of the
// store's controlled run, and blocking (backpressure, completion wait) is
// a cooperative Park on p — the run's policy decides when the submitter
// advances. It also works on the free runtime with a free-mode proc.
func (s *Store) DoOn(p *sched.Proc, op Op) (Result, error) {
	return s.do(p, context.Background(), op, noTimeout)
}

// DoTimeoutOn is DoOn with a completion deadline of timeout runtime clock
// units (scheduler steps on the virtual runtime, nanoseconds on the free
// one) measured from submission. The deadline bounds only the completion
// wait — backpressure on a full queue still blocks, and an ErrDeadline'd
// command may still commit (see Do); retry with the same Op.ID.
func (s *Store) DoTimeoutOn(p *sched.Proc, op Op, timeout int64) (Result, error) {
	return s.do(p, context.Background(), op, max(timeout, 0))
}

// fireSend fires the queue.send fault point on the single-op submit path.
// Crash outcomes unwind a proc-backed submitter (free-mode clients have no
// proc to crash and ignore them); delay outcomes sleep before the enqueue;
// drop outcomes model a lost send and surface as ErrSaturated.
func (s *Store) fireSend(p *sched.Proc) error {
	if s.faults == nil {
		return nil
	}
	o := s.faults.Fire(FaultQueueSend)
	if o.Crash && p != nil {
		p.Crash()
	}
	if o.Delay > 0 {
		s.rt.sleep(p, o.Delay)
	}
	if o.Drop {
		return ErrSaturated
	}
	return nil
}

// noTimeout is do's timeout for callers whose completion wait is bounded
// only by their context.
const noTimeout = -1

// do is the single-op submit path. timeout >= 0 bounds the completion wait
// on the runtime clock, measured from the enqueue (DoTimeoutOn).
func (s *Store) do(p *sched.Proc, ctx context.Context, op Op, timeout int64) (Result, error) {
	if op.Kind >= NumOpKinds {
		return Result{}, fmt.Errorf("service: invalid op kind %d", op.Kind)
	}
	if err := s.fireSend(p); err != nil {
		return Result{}, err
	}
	sub := s.rt.submission(1)
	r := &sub.reqs[0]
	r.op, r.start = op, s.rt.now(p)
	sh := s.shardOf(op.Key)
	if err := s.rt.beginSubmit(); err != nil {
		return Result{}, err
	}
	r.call = s.clock.Add(1)
	err := sh.q.send(p, ctx, r)
	s.rt.endSubmit()
	if err != nil {
		return Result{}, err
	}
	s.mets.inflight.AddAt(sh.id, 1)
	if timeout >= 0 {
		err = s.rt.awaitUntil(p, sub, s.rt.now(p)+timeout)
	} else {
		err = s.rt.await(p, ctx, sub, 1)
	}
	if err != nil {
		return Result{}, err
	}
	res := r.res
	s.rt.recycle(sub)
	return res, nil
}

// Get reads key.
func (s *Store) Get(ctx context.Context, key string) (string, bool, error) {
	res, err := s.Do(ctx, Op{Kind: OpGet, Key: key})
	return res.Val, res.OK, err
}

// Put writes key = val.
func (s *Store) Put(ctx context.Context, key, val string) error {
	_, err := s.Do(ctx, Op{Kind: OpPut, Key: key, Val: val})
	return err
}

// CAS installs new under key if its current value is old, reporting whether
// the swap happened (a missing key has current value "").
func (s *Store) CAS(ctx context.Context, key, old, new string) (bool, error) {
	res, err := s.Do(ctx, Op{Kind: OpCAS, Key: key, Old: old, Val: new})
	return res.OK, err
}

// DoBatch submits ops concurrently (grouped per shard by the workers'
// batching) and waits for all results, index-aligned with ops. If ctx is
// done mid-submission the tail is rejected with ErrSaturated; if it
// expires while awaiting, DoBatch returns ErrDeadline — in both cases
// already-enqueued commands stay in the pipeline and will still commit
// (see Do for retry semantics). DoBatch is the free-runtime client entry
// point; on a virtual runtime use DoBatchOn.
func (s *Store) DoBatch(ctx context.Context, ops []Op) ([]Result, error) {
	return s.doBatch(nil, ctx, ops)
}

// DoBatchOn is DoBatch for virtual-runtime clients (see DoOn). A Close
// landing mid-submission can reject the batch's tail with ErrClosed;
// already-enqueued commands still commit and are awaited.
func (s *Store) DoBatchOn(p *sched.Proc, ops []Op) ([]Result, error) {
	return s.doBatch(p, context.Background(), ops)
}

func (s *Store) doBatch(p *sched.Proc, ctx context.Context, ops []Op) ([]Result, error) {
	for _, op := range ops {
		if op.Kind >= NumOpKinds {
			return nil, fmt.Errorf("service: invalid op kind %d", op.Kind)
		}
	}
	if err := s.rt.beginSubmit(); err != nil {
		return nil, err
	}
	sub := s.rt.submission(len(ops))
	sent := 0
	var submitErr error
	for i, op := range ops {
		r := &sub.reqs[i]
		r.op, r.start = op, s.rt.now(p)
		r.call = s.clock.Add(1)
		sh := s.shardOf(op.Key)
		if submitErr = sh.q.send(p, ctx, r); submitErr != nil {
			break
		}
		s.mets.inflight.AddAt(sh.id, 1)
		sent++
	}
	s.rt.endSubmit()
	awaitErr := s.rt.await(p, ctx, sub, sent)
	if submitErr != nil {
		return nil, submitErr
	}
	if awaitErr != nil {
		return nil, awaitErr
	}
	out := make([]Result, sent)
	for i := range out {
		out[i] = sub.reqs[i].res
	}
	s.rt.recycle(sub)
	return out, nil
}

// Close gracefully shuts the store down: it stops accepting new commands,
// waits for every queued command to commit and answer, flushes the auditor,
// and returns. Submissions racing with Close either complete normally or
// return ErrClosed. A second Close returns ErrClosed. Close is the
// free-runtime entry point; on a virtual runtime use CloseOn.
func (s *Store) Close() error { return s.close(nil) }

// CloseOn is Close for virtual-runtime drivers: the drain (joining every
// worker, then the auditor) parks p cooperatively, so an adversarial
// policy can stall the drain — exactly the behavior drain-under-load
// scenarios probe.
func (s *Store) CloseOn(p *sched.Proc) error { return s.close(p) }

func (s *Store) close(p *sched.Proc) error {
	if err := s.rt.markClosed(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.q.close()
	}
	if s.cfg.Supervise.Enabled {
		// Tell every supervisor the store is closing, then wait for each to
		// settle its slots (the last incarnation of every slot drains the
		// queue backlog and exits clean, or the slot is condemned). Only
		// then is it safe to retire the respawn seats — no further respawn
		// can race the close.
		for _, sh := range s.shards {
			sh.notify.post(deathEvent{closing: true})
		}
		for _, join := range s.superJoins {
			join(p)
		}
		s.rt.closeSeats()
		s.rt.joinSeats(p)
	}
	for _, join := range s.joins {
		join(p)
	}
	if s.audit != nil {
		s.audit.close(p)
	}
	return nil
}

// LatencySummary condenses one op kind's latency distribution.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P99Ns  int64   `json:"p99_ns"`
	MaxNs  int64   `json:"max_ns"`
	// Hist is the full power-of-two bucketed distribution.
	Hist sim.Histogram `json:"hist"`
}

// summarize condenses a registry histogram under the registry's quantile
// rules (floor rank, upper bucket bound), so /stats and /metrics report the
// same numbers.
func summarize(h metrics.HistogramSnapshot) LatencySummary {
	hist := histOf(h)
	return LatencySummary{
		Count:  h.Count,
		MeanNs: h.Mean(),
		P50Ns:  h.Quantile(0.50),
		P99Ns:  h.Quantile(0.99),
		MaxNs:  hist.Max,
		Hist:   hist,
	}
}

// histOf re-buckets a registry snapshot into the sim.Histogram shape Stats
// has always carried: the bucket with upper bound 2^e becomes Buckets[e],
// the +Inf bucket the one after the last bound. Max is the upper bound of
// the highest non-empty bucket (the last finite bound for +Inf, as in
// HistogramSnapshot.Quantile).
func histOf(h metrics.HistogramSnapshot) sim.Histogram {
	out := sim.Histogram{Count: h.Count, Sum: h.Sum}
	last := len(h.Bounds) - 1
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		bound := h.Bounds[min(i, last)]
		b := bits.Len64(uint64(bound - 1)) // bound == 2^b
		if i > last {
			b++
		}
		for len(out.Buckets) <= b {
			out.Buckets = append(out.Buckets, 0)
		}
		out.Buckets[b] += c
		out.Max = bound
	}
	return out
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Shards          int `json:"shards"`
	WorkersPerShard int `json:"workers_per_shard"`
	// Ops counts committed commands by kind ("get", "put", "cas").
	Ops      map[string]int64 `json:"ops"`
	TotalOps int64            `json:"total_ops"`
	// Batches counts committed log commands; BatchSize is the distribution
	// of commands per log command.
	Batches   int64         `json:"batches"`
	BatchSize sim.Histogram `json:"batch_size"`
	// Latency is the server-side submit-to-commit latency by op kind.
	Latency map[string]LatencySummary `json:"latency"`
	// QueueDepth is each shard's current queued-command count.
	QueueDepth []int `json:"queue_depth"`
	// Committed is each shard's log length (max over its workers'
	// replica positions).
	Committed []int64 `json:"committed"`
	// Audit is the online auditor's progress (zero when disabled).
	Audit AuditStats `json:"audit"`
	// Supervision is the worker-supervision snapshot (zero when disabled).
	Supervision SupervisionStats `json:"supervision"`
	// Faults is the fault-injection point counters (nil when disarmed).
	Faults map[string]fault.PointStats `json:"faults,omitempty"`
}

// SupervisionStats snapshots worker supervision: how many incarnations
// crashed and were restarted, how many slots the crash-loop breaker (or
// virtual-runtime seat exhaustion) permanently condemned, and the
// crash-to-first-commit recovery latency distribution in runtime clock
// units.
type SupervisionStats struct {
	Enabled         bool           `json:"enabled"`
	Restarts        int64          `json:"restarts"`
	Condemned       int64          `json:"condemned"`
	SparesExhausted int64          `json:"spares_exhausted"`
	Recovery        LatencySummary `json:"recovery"`
}

// statsProc is the free-mode proc Stats uses for its lock-free register
// reads. Stats runs outside any controlled run (concurrently with traffic
// on the free runtime, after Execute on the virtual one), so it must not
// take scheduler steps on a run-owned proc.
var statsProc = sched.FreeProc(-1)

// Stats snapshots the store. It is safe to call concurrently with traffic
// and after Close (on a virtual runtime: after the run has executed).
func (s *Store) Stats() Stats {
	st := MergedStats([]*Store{s})
	st.Faults = s.faults.Stats()
	return st
}

// MergedStats is the Stats of several stores taken as one (a cluster node's
// per-shard replica stores): a read-only view over their metrics registries
// — counters summed, histograms merged bucket by bucket — plus each shard's
// live queue depth and log length and the auditors' progress. Faults is
// left nil (fault sets are per store).
func MergedStats(stores []*Store) Stats {
	st := Stats{
		Ops:     make(map[string]int64, NumOpKinds),
		Latency: make(map[string]LatencySummary, NumOpKinds),
	}
	var lat [NumOpKinds]metrics.HistogramSnapshot
	var batchOcc, recovery metrics.HistogramSnapshot
	for _, s := range stores {
		st.Shards += s.cfg.Shards
		st.WorkersPerShard = s.cfg.WorkersPerShard
		for _, sh := range s.shards {
			st.QueueDepth = append(st.QueueDepth, sh.q.len())
			st.Committed = append(st.Committed, sh.frontier(statsProc))
		}
		m := s.mets
		for k := range lat {
			st.Ops[OpKind(k).String()] += m.ops[k].Value()
			lat[k].Merge(m.latency[k].Snapshot())
		}
		st.Batches += m.batches.Value()
		batchOcc.Merge(m.batchOcc.Snapshot())
		recovery.Merge(m.recovery.Snapshot())
		sup := &st.Supervision
		sup.Enabled = sup.Enabled || s.cfg.Supervise.Enabled
		sup.Restarts += m.restarts.Value()
		sup.Condemned += m.condemned.Value()
		sup.SparesExhausted += m.sparesExhausted.Value()
		if s.audit != nil {
			a := s.audit.stats()
			st.Audit.SampledOps += a.SampledOps
			st.Audit.DroppedOps += a.DroppedOps
			st.Audit.WindowsChecked += a.WindowsChecked
			st.Audit.Violations += a.Violations
			st.Audit.Truncated += a.Truncated
			st.Audit.Gaps += a.Gaps
			st.Audit.ViolationSamples = append(st.Audit.ViolationSamples, a.ViolationSamples...)
		}
	}
	for k := range lat {
		kind := OpKind(k).String()
		st.TotalOps += st.Ops[kind]
		st.Latency[kind] = summarize(lat[k])
	}
	st.BatchSize = histOf(batchOcc)
	st.Supervision.Recovery = summarize(recovery)
	return st
}
