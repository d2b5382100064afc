package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/universal"
)

// request is one client command as its caller submitted it: the caller
// writes op, call and start before the enqueue, and the answer writes res.
// It lives in its submission's slab, never on its own, and no worker reads
// it once it is answered (the log command carries its own copy, see batch).
type request struct {
	op    Op
	call  int64 // logical clock at submission (audit interval start)
	start int64 // runtime clock at submission (latency)
	res   Result
	// sub is the submission this request counts toward. answered is the
	// virtual runtime's signal (written under the step token).
	sub      *submission
	answered bool
}

// submission is one client call — a Do or a whole DoBatch: the slab of its
// requests, index-aligned with the call's ops, and the single completion
// they share. pending counts the requests not yet answered (or never
// enqueued and released); whoever takes it to zero signals done, so the
// caller waits once however many ops it submitted. The virtual runtime uses
// neither: it parks on each request's answered flag in turn.
//
// On the free runtime a submission is recycled: done is 1-buffered,
// signalled once per call and never closed, and the caller hands the
// submission back after a wait that succeeded, when every request it sent
// has been answered and no worker will touch it again. A caller that gave
// up (ErrDeadline) never hands it back: its requests may still be answered
// after the call returned (see docs/ARCHITECTURE.md, "One completion per
// call").
type submission struct {
	reqs    []request
	pending atomic.Int64
	done    chan struct{}
	// one backs reqs for a single-op submission; slab backs a larger one
	// and is kept for the next call that fits it.
	one  [1]request
	slab []request
}

// reset readies sub for a call of n ops.
func (sub *submission) reset(n int) {
	switch {
	case n == 1:
		sub.reqs = sub.one[:]
	case cap(sub.slab) >= n:
		sub.reqs = sub.slab[:n]
	default:
		sub.slab = make([]request, n)
		sub.reqs = sub.slab
	}
	for i := range sub.reqs {
		sub.reqs[i].sub = sub
	}
	sub.pending.Store(int64(n))
}

// release takes n requests off the countdown: one answered by a worker, or
// the tail a rejected submission never enqueued.
func (sub *submission) release(n int) {
	if sub.pending.Add(-int64(n)) == 0 {
		sub.done <- struct{}{}
	}
}

// entry is one key's slot in the shard state machine: its value, whether a
// write has ever materialized it (a get on a missing key must keep
// reporting OK=false), and the number of commands ever applied to it.
// Versions are decided by the replicated log, so every replica assigns
// identical versions — they are the gap-free ground truth the online
// auditor keys its windows on.
type entry struct {
	val    string
	exists bool
	ver    uint64
}

// dedupEntry is the remembered outcome of an identified op, replayed to
// retries of the same op ID instead of re-applying them.
type dedupEntry struct {
	res Result
	ver uint64
}

// kvState is one replica's materialized state: the key map plus the
// dedup table for client-assigned op IDs. Because the table is part of the
// replicated state machine — mutated only inside apply, in log order —
// every replica agrees on exactly which retry was a duplicate, and a
// timed-out client may resubmit with the same ID without risking a
// double-apply. order is the FIFO eviction queue bounding the table at
// maxDedup remembered IDs.
type kvState struct {
	keys  map[string]entry
	dedup map[uint64]dedupEntry
	order []uint64
}

// maxDedup bounds each shard's table of remembered op IDs (see Op.ID); the
// oldest ID is forgotten first.
const maxDedup = 4096

func newKVState() kvState {
	return kvState{keys: map[string]entry{}, dedup: map[uint64]dedupEntry{}}
}

// batch is one log command: a group of client commands committed at a
// single log position. Batches are compared by pointer identity, which is
// exactly the "commands must be globally unique" requirement of
// universal.Replica.Exec.
//
// A batch is self-contained: every replica applies it, long after its
// callers may have been answered and have reused their requests, so it
// carries copies of its window's ops (ents), and each entry's answered
// guard. The owning slot recycles it once the shard's truncation floor has
// passed its log position (see slot.retire).
//
// decided and counted are the crash-recovery bookkeeping, written by the
// owning slot's serving proc (single writer; the death-notice handoff
// through the supervisor orders a successor's reads): decided flips the
// moment Exec returns, so a recovering incarnation knows whether to
// re-propose the batch or only finish answering it, and counted guards the
// once-only side effects of finish (stats, audit records) against a crash
// landing between them and the client completions.
type batch struct {
	owner *slot
	ents  []batchEntry
	pos   int // log position, set when decided
	// recorded marks the batch captured by the history recorder at its
	// first apply (virtual runtime only; written under the step token).
	recorded bool
	decided  bool
	counted  bool
}

// batchEntry is one command of a batch: the caller's op, call and start,
// copied at commit; the owner's apply result; and the request it answers.
// answered makes answering idempotent: a batch interrupted mid-answer by a
// crash is finished again by the recovering incarnation, which must
// neither count a request twice nor touch one its caller has since reused.
type batchEntry struct {
	op       Op
	call     int64
	start    int64
	res      Result
	ver      uint64 // per-key state-machine version of this op
	req      *request
	answered atomic.Bool
}

// answer hands e's result to its request and signals the caller, once
// however many times finish runs over e, and reports whether this call did.
func (e *batchEntry) answer(rt Runtime) bool {
	if !e.answered.CompareAndSwap(false, true) {
		return false
	}
	e.req.res = e.res
	rt.complete(e.req)
	return true
}

// maxFreeEntries bounds a slot's free list by the entries its batches'
// ents arrays hold, so what a long lag (a slot idle or stalled while its
// peers commit) reclaims at once leaves at most 2 MiB of entries (128 B
// each, plus 48 B per batch) behind it, whatever MaxBatch was. A sync.Pool
// would need no bound, but under -race it drops a random quarter of what
// it is given, and the race build's allocation counts would read the drops.
const maxFreeEntries = 16 << 10

// cellChunk is how many log cells newShard allocates at once.
const cellChunk = 64

// shard is one independent replicated log plus its submitter slots.
type shard struct {
	store *Store
	id    int
	log   *universal.Log[*batch]
	q     queue
	slots []*slot
	// notify carries worker death notices to the shard supervisor
	// (nil when supervision is disabled).
	notify notifier
}

func newShard(s *Store, id int) *shard {
	sh := &shard{
		store: s,
		id:    id,
		q:     s.rt.newQueue(s.cfg.QueueDepth, s.effectiveQueueDepth),
	}
	// Every log position is a write-once consensus cell (consensus number
	// +inf), the wait-free base object the universal construction assumes.
	// A cell's name is read only by a controlled run's trace, so the free
	// runtime shares one per shard instead of formatting one per commit.
	// Cells come from chunks of cellChunk: the log calls this under its own
	// lock, which guards chunk. A chunk stays reachable, and with it the
	// batches its truncated cells decided, until the log has truncated
	// every one of its cells.
	shared := fmt.Sprintf("shard%d/cell", id)
	var chunk []memory.Once[*batch]
	sh.log = universal.NewLog[*batch](func(i int) universal.Proposer[*batch] {
		if len(chunk) == 0 {
			chunk = make([]memory.Once[*batch], cellChunk)
		}
		cell := &chunk[0]
		chunk = chunk[1:]
		if s.rec == nil {
			cell.Init(shared)
		} else {
			cell.Init(fmt.Sprintf("shard%d/cell%d", id, i))
		}
		return cell
	})
	for wi := 0; wi < s.cfg.WorkersPerShard; wi++ {
		sl := &slot{sh: sh, idx: wi, gid: sh.id*s.cfg.WorkersPerShard + wi}
		sl.committed.Init(fmt.Sprintf("shard%d/committed%d", id, wi), 0)
		sl.rep = universal.NewReplica[kvState, *batch](sh.log, newKVState(), sl.applyBatch)
		sl.buf = make([]*request, 0, s.cfg.MaxBatch)
		sh.slots = append(sh.slots, sl)
	}
	return sh
}

// frontier returns the shard's log length: the highest position any of its
// slots has published.
func (sh *shard) frontier(p *sched.Proc) int64 {
	var max int64
	for _, sl := range sh.slots {
		if pos := sl.committed.Read(p); pos > max {
			max = pos
		}
	}
	return max
}

// truncate releases log cells every live slot's replica has passed, so a
// long-running store does not pin every committed batch forever, and
// returns that floor: no live replica will read a position below it again.
// Published positions only trail the replicas, so the minimum over them is
// always a safe truncation limit. Condemned slots (crash-loop breaker
// tripped, no successor coming) are excluded — their frozen position must
// not pin the log floor forever.
func (sh *shard) truncate(p *sched.Proc) int {
	min := int64(1<<62 - 1)
	live := 0
	for _, sl := range sh.slots {
		if sl.condemned.Load() {
			continue
		}
		live++
		if pos := sl.committed.Read(p); pos < min {
			min = pos
		}
	}
	if live == 0 {
		return 0
	}
	sh.log.Truncate(int(min))
	return int(min)
}

// slot is one submitter seat of a shard. The replica and its published
// position live here, and the seat's statistics in stripe gid of the store's
// metrics registry — not on any particular worker goroutine/proc — so they
// survive worker incarnations: when an incarnation crashes, the supervisor
// respawns a new one onto the same slot, which finds the replica already
// holding the decided prefix and resumes from the shard frontier. A crash
// costs latency, never capacity and never replayed work.
type slot struct {
	sh  *shard
	idx int // index within the shard
	gid int // global worker id; doubles as the audit process id, stable across restarts
	rep *universal.Replica[kvState, *batch]

	// committed publishes this slot's replica position (single writer —
	// incarnations are serialized by the supervisor handoff; read lock-free
	// by Stats via the memory package's free-mode fast path).
	committed memory.AtomicRegister[int64]

	// condemned marks the crash-loop breaker tripped: no further
	// incarnations will serve this slot, and truncate stops counting it.
	condemned atomic.Bool

	// p is the proc of the current incarnation, set at incarnation start.
	// Only that incarnation reads it (fault points inside applyBatch need a
	// proc to crash or sleep); successive writers are ordered by the
	// supervisor handoff.
	p *sched.Proc

	// Crash handoff state, written by the serving incarnation and read by
	// its successor (ordered by the death notice through the supervisor):
	// buf holds dequeued-but-uncommitted requests, inflight the batch being
	// committed when the crash hit, diedAt the runtime clock of the last
	// crash (0 = none pending), consumed into the recovery histogram at the
	// successor's first commit.
	buf      []*request
	inflight *batch
	diedAt   int64

	// retired holds this slot's finished batches in log order until the
	// truncation floor passes them; free holds the ones it has passed,
	// cleared and ready for reuse, and freeEnts the capacity of their ents
	// arrays. Only the serving incarnation touches them.
	retired  []*batch
	free     []*batch
	freeEnts int
}

// syncInterval is how often an idle free-runtime worker catches its replica
// up to the shard frontier so it stops pinning the truncation floor (the
// virtual runtime's analogue is virtualSyncSteps of logical time).
const syncInterval = 25 * time.Millisecond

// body returns the unsupervised worker entry point for this slot.
func (sl *slot) body() func(*sched.Proc) {
	return func(p *sched.Proc) {
		sl.p = p
		sl.serve(p)
	}
}

// incarnation returns one supervised worker incarnation: serve wrapped with
// the death-notice protocol. A clean return (queue closed and drained)
// posts crashed=false; any other exit — an injected sched.Proc.Crash, or
// on the free runtime any panic escaping the serving path — posts
// crashed=true. On the free runtime the panic is trapped here, at the proc
// boundary, so a worker crash never takes the process down; on the virtual
// runtime the crash signal must keep unwinding into the scheduler, which
// accounts the proc Crashed exactly like a policy-injected crash. The
// deferred notice takes no scheduler steps (notifier.post is step-free),
// which is required during a crash unwind.
func (sl *slot) incarnation() func(*sched.Proc) {
	return func(p *sched.Proc) {
		sl.p = p
		clean := false
		defer func() {
			if !clean && sl.sh.store.rt.trapPanics() {
				_ = recover()
			}
			if !clean {
				sl.diedAt = sl.sh.store.rt.now(p)
			}
			sl.sh.notify.post(deathEvent{sl: sl, crashed: !clean})
		}()
		sl.serve(p)
		clean = true
	}
}

// serve is the worker loop: recover any interrupted work from a previous
// incarnation, then drain the shard queue — one blocking receive opens a
// grant window, a non-blocking drain fills it up to MaxBatch, and the whole
// window commits as one log command. While idle, the worker periodically
// catches its replica up to the shard frontier (an idle replica's position
// is the truncation floor — without catching up it would pin every
// committed batch in memory). It exits when the shard queue is closed and
// drained, catching up one final time so shutdown leaves the log truncated.
func (sl *slot) serve(p *sched.Proc) {
	rcv := sl.sh.q.receiver()
	defer rcv.stop()
	sl.recoverPrev(p)
	for {
		r, tick, ok := rcv.recv(p)
		if !ok {
			sl.catchUp(p)
			return
		}
		if tick {
			sl.catchUp(p)
			continue
		}
		// MaxBatch is re-read per grant window so a config reload takes
		// effect at the next window (one atomic pointer load).
		maxBatch := sl.sh.store.tunables().MaxBatch
		sl.buf = append(sl.buf[:0], r)
		for len(sl.buf) < maxBatch {
			r2, ok := rcv.tryRecv(p)
			if !ok {
				break
			}
			sl.buf = append(sl.buf, r2)
		}
		sl.commit(p, sl.buf)
	}
}

// recoverPrev finishes work a crashed predecessor left on the slot. An
// in-flight batch is re-proposed unless the predecessor already saw it
// decided: b.decided flips in the same atomic region as the deciding
// write-once propose (no scheduler step separates them), so !decided
// guarantees the batch holds no log position and a fresh Exec is safe,
// while decided means only the answering side effects remain. Requests
// that were dequeued but never made it into a batch commit as a fresh
// batch — a dequeued command is owed a result, the queue no longer holds
// it, and only this slot knows about it.
func (sl *slot) recoverPrev(p *sched.Proc) {
	if b := sl.inflight; b != nil {
		if !b.decided {
			sl.rep.Exec(p, b)
			b.pos, b.decided = sl.rep.Pos()-1, true
		}
		sl.finish(p, b)
		sl.inflight = nil
		sl.retire(b)
	} else if len(sl.buf) > 0 {
		sl.commit(p, sl.buf)
	}
	sl.catchUp(p)
}

// catchUp applies every log command other slots have already committed
// (all positions below the shard frontier are decided, so Sync never
// proposes), publishes the new position, and truncates the log.
func (sl *slot) catchUp(p *sched.Proc) {
	frontier := sl.sh.frontier(p)
	if int(frontier) <= sl.rep.Pos() {
		return
	}
	sl.rep.Sync(p, int(frontier), nil)
	sl.committed.Write(p, int64(sl.rep.Pos()))
	sl.reclaim(sl.sh.truncate(p))
}

// commit proposes reqs as one log command, waits for the universal
// construction to decide and apply it, then answers every client in the
// batch. Exec may lose positions to the shard's other slots; the replica
// applies their batches along the way, so this slot's state is always the
// decided prefix of the log. inflight/decided bracket the commit so a
// crash at any point (the worker.preCommit and worker.postCommit fault
// points, or anywhere inside Exec) hands the successor exactly the state
// it needs to finish without double-deciding or double-counting.
func (sl *slot) commit(p *sched.Proc, reqs []*request) {
	st := sl.sh.store
	b := sl.newBatch(reqs)
	sl.inflight = b
	// The batch holds the window now: a successor must not commit it again.
	sl.buf = sl.buf[:0]
	st.firePoint(p, FaultWorkerPreCommit)
	sl.rep.Exec(p, b)
	b.pos, b.decided = sl.rep.Pos()-1, true
	st.firePoint(p, FaultWorkerPostCommit)
	sl.finish(p, b)
	sl.inflight = nil
	sl.retire(b)
}

// newBatch returns a batch holding copies of reqs, reusing a free one.
func (sl *slot) newBatch(reqs []*request) *batch {
	var b *batch
	if n := len(sl.free); n > 0 {
		b = sl.free[n-1]
		sl.free[n-1] = nil
		sl.free = sl.free[:n-1]
		sl.freeEnts -= cap(b.ents)
	} else {
		b = &batch{owner: sl}
	}
	if cap(b.ents) < len(reqs) {
		b.ents = make([]batchEntry, len(reqs))
	}
	b.ents = b.ents[:len(reqs)]
	for i, r := range reqs {
		e := &b.ents[i]
		e.op, e.call, e.start, e.req = r.op, r.call, r.start, r
	}
	return b
}

// retire queues a finished batch until no live replica will read it.
func (sl *slot) retire(b *batch) { sl.retired = append(sl.retired, b) }

// reclaim frees the retired batches below floor, the shard's truncation
// floor: every live replica has applied them and the log has dropped their
// cells. Each is cleared on the way, so a free batch pins no payload and
// answers no request.
func (sl *slot) reclaim(floor int) {
	k := 0
	for ; k < len(sl.retired) && sl.retired[k].pos < floor; k++ {
		b := sl.retired[k]
		clear(b.ents)
		*b = batch{owner: sl, ents: b.ents[:0]}
		if sl.freeEnts+cap(b.ents) <= maxFreeEntries {
			sl.free = append(sl.free, b)
			sl.freeEnts += cap(b.ents)
		}
	}
	if k > 0 {
		n := copy(sl.retired, sl.retired[k:])
		clear(sl.retired[n:])
		sl.retired = sl.retired[:n]
	}
}

// finish publishes the post-commit side effects of a decided batch:
// position, truncation, stats, audit records, and the client completions.
// It is crash-idempotent — counted guards the once-only effects, and each
// entry's answered guard its completion — so a recovering incarnation can
// safely re-run it on an inherited batch.
func (sl *slot) finish(p *sched.Proc, b *batch) {
	st := sl.sh.store
	sl.committed.Write(p, int64(sl.rep.Pos()))
	sl.reclaim(sl.sh.truncate(p))
	if !b.counted {
		b.counted = true
		ret := st.clock.Add(1)
		now := st.rt.now(p)
		// The registry is the store's only per-op ledger (Stats is a view
		// over it). Records ride the counted guard, so a crash mid-finish
		// never double-counts a batch: 0 allocs, no lock, single-writer
		// stripe (this slot).
		mets := st.mets
		if sl.diedAt != 0 {
			mets.recovery.ObserveAt(sl.gid, now-sl.diedAt)
			sl.diedAt = 0
		}
		mets.batches.IncAt(sl.gid)
		mets.batchOcc.ObserveAt(sl.gid, int64(len(b.ents)))
		for i := range b.ents {
			e := &b.ents[i]
			mets.ops[e.op.Kind].IncAt(sl.gid)
			mets.latency[e.op.Kind].ObserveAt(sl.gid, now-e.start)
		}
		mets.inflight.AddAt(sl.sh.id, -int64(len(b.ents)))
		if a := st.audit; a != nil {
			for i := range b.ents {
				if !st.firePoint(p, FaultAuditRecord) {
					a.observe(sl.gid, &b.ents[i], ret)
				}
			}
		}
	}
	for i := range b.ents {
		b.ents[i].answer(st.rt)
	}
}

// applyBatch is the deterministic state machine. It runs once per log
// command on every replica of the shard; each replica mutates only its own
// state and reads only the batch's own copies of its ops. The batch's owner
// additionally records results and per-key versions into the entries —
// exactly once, since its replica applies each position exactly once — and,
// under the virtual runtime, whichever replica applies a position first
// captures the batch's ground-truth results into the complete-history
// recorder.
//
// Identified ops (op.ID != 0) are deduplicated against the replicated
// dedup table: a retry of an already-applied ID replays the remembered
// result instead of mutating state, so timeout-and-retry is exactly-once
// up to maxDedup remembered IDs.
func (sl *slot) applyBatch(m kvState, b *batch) kvState {
	if b == nil {
		// Sync's noop: never decided into a cell (catchUp only syncs below
		// the frontier, where every position already holds a real batch),
		// but harmless if applied.
		return m
	}
	st := sl.sh.store
	own := b.owner == sl
	if own && st.faults != nil {
		// worker.preApply fires before any state mutation: a crash here
		// leaves the replica position unadvanced, so the successor re-applies
		// the same decided batch onto untouched state.
		st.firePoint(sl.p, FaultWorkerPreApply)
	}
	record := st.rec != nil && !b.recorded
	var ret int64
	if record {
		b.recorded = true
		ret = st.clock.Add(1)
	}
	for i := range b.ents {
		cmd := &b.ents[i]
		id, hit := cmd.op.ID, false
		if id != 0 {
			var c dedupEntry
			if c, hit = m.dedup[id]; hit {
				if own {
					st.mets.dedupHits.IncAt(sl.gid)
				}
				if !st.debugNoDedup {
					if own {
						cmd.res, cmd.ver = c.res, c.ver
					}
					if record {
						st.rec.recordDup(cmd.req)
					}
					continue
				}
				// Canary mode: the short-circuit is disabled, so the retry
				// falls through and double-applies. Count the ground truth
				// at the point of sin (once — on the owner's replica) so the
				// must-detect oracle can compare it against the checker's
				// verdict.
				if own {
					st.debugDoubles.Add(1)
				}
			}
		}
		e := m.keys[cmd.op.Key]
		e.ver++
		var res Result
		switch cmd.op.Kind {
		case OpGet:
			res = Result{Val: e.val, OK: e.exists}
		case OpPut:
			res = Result{Val: cmd.op.Val, OK: true}
			if st.debugDropPuts == "" || cmd.op.Key != st.debugDropPuts {
				e.val, e.exists = cmd.op.Val, true
			}
		case OpCAS:
			if e.val == cmd.op.Old {
				e.val, e.exists = cmd.op.Val, true
				res = Result{Val: cmd.op.Val, OK: true}
			} else {
				res = Result{Val: e.val, OK: false}
			}
		}
		m.keys[cmd.op.Key] = e
		if own {
			cmd.res, cmd.ver = res, e.ver
		}
		if id != 0 && !hit {
			m.dedup[id] = dedupEntry{res: res, ver: e.ver}
			m.order = append(m.order, id)
			if len(m.order) > maxDedup {
				delete(m.dedup, m.order[0])
				m.order = m.order[1:]
				if cap(m.order) > 4*maxDedup {
					m.order = append([]uint64(nil), m.order...)
				}
			}
		}
		if record {
			st.rec.record(cmd.req, res, e.ver, ret)
		}
	}
	return m
}
