package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// Runtime is the execution substrate of a Store: how worker and auditor
// procs are spawned and joined, how requests move through shard queues and
// are answered, and what clock timestamps operations. The serving logic
// (batching, the universal construction, the state machine, the auditor's
// window assembly, worker supervision) is runtime-agnostic; only the
// blocking primitives differ.
//
// Two implementations exist:
//
//   - the free runtime (the default, used by New): real goroutines, Go
//     channels, time.Now — the production fast path, unchanged from the
//     original free-mode serving tier;
//   - the virtual runtime (NewVirtualRuntime + NewVirtual): every worker,
//     submitter and the auditor is a proc of one controlled sched.Run,
//     every blocking point is a cooperative sched.Proc.Park poll, and time
//     is the run's granted-step count — so the whole serving tier executes
//     under an adversarial scheduling Policy, deterministically in the
//     run's seed.
//
// The interface is sealed (unexported methods): external packages pick a
// runtime via the constructors, they do not implement their own.
type Runtime interface {
	// now returns the runtime clock: wall-clock nanoseconds in free mode,
	// the run's granted-step count in virtual mode. p is the calling proc
	// (nil on the free-mode client path, which has no proc).
	now(p *sched.Proc) int64
	// newQueue creates one shard's bounded request queue. capacity is the
	// physical (boot) bound; depth returns the live effective admission
	// bound in [1, capacity] (config reload can shrink it at runtime).
	newQueue(capacity int, depth func() int) queue
	// newMailbox creates the auditor's bounded record queue.
	newMailbox(capacity int) mailbox
	// newNotifier creates one shard's death-notice queue: worker
	// incarnations post their exit from the proc boundary, the shard
	// supervisor consumes. post must be safe from a crashing proc's
	// deferred unwind (it must not take scheduler steps).
	newNotifier(capacity int) notifier
	// beginSubmit opens one submission (a single op or a whole batch)
	// against a racing Close: after it returns nil, enqueues cannot race
	// with the queues closing. endSubmit closes the bracket.
	beginSubmit() error
	endSubmit()
	// markClosed transitions the store to closed, returning ErrClosed if it
	// already was.
	markClosed() error
	// spawn starts fn on the next managed proc. The returned join blocks
	// (on behalf of waiter, nil on the free-mode path) until fn returns.
	spawn(fn func(*sched.Proc)) (join func(waiter *sched.Proc))
	// provision pre-allocates n respawn seats. The virtual runtime spawns
	// them as procs of the run up front (a controlled run cannot add procs
	// after Execute); the free runtime mints goroutines on demand and
	// ignores n.
	provision(n int)
	// respawn runs fn on a respawn seat, reporting false when no seat is
	// available (the virtual runtime's seat pool is exhausted — the
	// supervisor treats that as a tripped breaker).
	respawn(fn func(*sched.Proc)) bool
	// closeSeats releases idle respawn seats; joinSeats blocks until every
	// seat (idle or serving) has exited. Call only after the supervisors
	// have been joined, so no further respawn races the close.
	closeSeats()
	joinSeats(waiter *sched.Proc)
	// submission returns a submission for a call of n ops; recycle takes
	// back one whose wait succeeded (see submission). The free runtime pools
	// them. The virtual runtime hands out fresh ones and drops nothing: its
	// history recorder keeps their requests after the run.
	submission(n int) *submission
	recycle(sub *submission)
	// complete marks r answered and, when it was the last unanswered request
	// of its submission, wakes the waiter. It is called once per request
	// per call: the batch entry's answered guard (see batchEntry.answer)
	// keeps a recovering incarnation from answering twice.
	complete(r *request)
	// await blocks until the first sent requests of sub — the enqueued
	// prefix; the rest were rejected mid-submission and are owed nothing —
	// are answered, or ctx is done (free runtime only; the virtual runtime
	// models deadlines with awaitUntil), returning ErrDeadline when the wait
	// was abandoned. awaitUntil is the deadline-bounded wait of a fully
	// enqueued submission on the runtime clock (absolute deadline in now()'s
	// units).
	await(p *sched.Proc, ctx context.Context, sub *submission, sent int) error
	awaitUntil(p *sched.Proc, sub *submission, deadline int64) error
	// sleep pauses p for d runtime clock units (supervisor backoff,
	// injected delays).
	sleep(p *sched.Proc, d int64)
	// trapPanics reports whether worker incarnations must recover panics at
	// the proc boundary (free mode). The virtual runtime reports false: a
	// crash must propagate to the scheduler, which accounts the proc
	// Crashed exactly like a policy-injected crash.
	trapPanics() bool
	// backoffDefaults returns the default supervisor backoff base and cap
	// in runtime clock units.
	backoffDefaults() (base, max int64)
}

// queue is one shard's bounded request queue.
type queue interface {
	// send enqueues r, blocking while the queue is full. It returns
	// ErrClosed if the queue closed before the enqueue happened, or
	// ErrSaturated if ctx expired while the queue was still full (free
	// mode only; virtual runs model abandonment with crash and omission
	// plans instead).
	send(p *sched.Proc, ctx context.Context, r *request) error
	// receiver returns a per-worker receive handle (it owns the worker's
	// idle-sync ticker state).
	receiver() receiver
	// close stops the queue: blocked senders fail with ErrClosed, receivers
	// drain the backlog and then see ok=false.
	close()
	// len is the current backlog, for stats.
	len() int
}

// receiver is one worker's receive handle on its shard queue.
type receiver interface {
	// recv blocks for the next request. tick=true reports that the idle
	// sync interval elapsed with no request (time to catch up the replica
	// and truncate); ok=false reports the queue closed and drained.
	recv(p *sched.Proc) (r *request, tick, ok bool)
	// tryRecv is the non-blocking drain used to fill a batch.
	tryRecv(p *sched.Proc) (*request, bool)
	// stop releases the receiver's resources.
	stop()
}

// mailbox is the auditor's bounded record queue. offer never blocks (a full
// mailbox drops, which the auditor detects as a version gap).
type mailbox interface {
	offer(rec auditRecord) bool
	take(p *sched.Proc) (auditRecord, bool)
	close()
}

// deathEvent is one worker incarnation's exit notice (or the store's
// closing sentinel), consumed by the shard supervisor.
type deathEvent struct {
	sl      *slot
	crashed bool
	closing bool // sentinel posted by Close: no new traffic, drain and settle
}

// notifier is one shard's death-notice queue.
type notifier interface {
	// post never blocks and takes no scheduler steps: it is called from a
	// crashing incarnation's deferred unwind.
	post(ev deathEvent)
	// wait blocks for the next notice.
	wait(p *sched.Proc) deathEvent
}

// freeRuntime is the production substrate: real goroutines and channels,
// wall-clock time. A client call takes one submission (see shard.go) however
// many ops it carries — the request slab, the countdown and its done
// channel — from a pool, and one wakeup when the last of them is answered;
// the path takes no locks beyond the submit/close RWMutex.
type freeRuntime struct {
	// mu guards closed. Submitters hold the read side across the enqueue so
	// that markClosed cannot let the shard queues close while a send is in
	// flight.
	mu     sync.RWMutex
	closed bool
	nextID int

	// respawnID numbers respawned worker incarnations (offset past the
	// construction-time procs); seatWG tracks their goroutines for
	// joinSeats.
	respawnID atomic.Int64
	seatWG    sync.WaitGroup

	// ones pools single-op submissions, slabs the larger ones.
	ones, slabs sync.Pool
}

func newFreeRuntime() *freeRuntime { return &freeRuntime{} }

func (rt *freeRuntime) now(*sched.Proc) int64 { return time.Now().UnixNano() }

func (rt *freeRuntime) newQueue(capacity int, depth func() int) queue {
	return &freeQueue{ch: make(chan *request, capacity), depth: depth}
}

func (rt *freeRuntime) newMailbox(capacity int) mailbox {
	return &freeMailbox{ch: make(chan auditRecord, capacity)}
}

func (rt *freeRuntime) newNotifier(capacity int) notifier {
	return &freeNotifier{ch: make(chan deathEvent, capacity)}
}

func (rt *freeRuntime) beginSubmit() error {
	rt.mu.RLock()
	if rt.closed {
		rt.mu.RUnlock()
		return ErrClosed
	}
	return nil
}

func (rt *freeRuntime) endSubmit() { rt.mu.RUnlock() }

func (rt *freeRuntime) markClosed() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	rt.closed = true
	return nil
}

// spawn is called only during Store construction, before the store escapes
// to other goroutines, so nextID needs no lock.
func (rt *freeRuntime) spawn(fn func(*sched.Proc)) func(*sched.Proc) {
	p := sched.FreeProc(rt.nextID)
	rt.nextID++
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(p)
	}()
	return func(*sched.Proc) { <-done }
}

// provision is a no-op: free-mode respawn seats are goroutines minted on
// demand.
func (rt *freeRuntime) provision(int) {}

func (rt *freeRuntime) respawn(fn func(*sched.Proc)) bool {
	p := sched.FreeProc(int(1<<16 + rt.respawnID.Add(1)))
	rt.seatWG.Add(1)
	go func() {
		defer rt.seatWG.Done()
		fn(p)
	}()
	return true
}

func (rt *freeRuntime) closeSeats() {}

func (rt *freeRuntime) joinSeats(*sched.Proc) { rt.seatWG.Wait() }

// pool is where a submission of n ops comes from and goes back to.
func (rt *freeRuntime) pool(n int) *sync.Pool {
	if n == 1 {
		return &rt.ones
	}
	return &rt.slabs
}

func (rt *freeRuntime) submission(n int) *submission {
	sub, _ := rt.pool(n).Get().(*submission)
	if sub == nil {
		sub = &submission{done: make(chan struct{}, 1)}
	}
	sub.reset(n)
	return sub
}

// recycle pools sub with its requests cleared, so a pooled slab pins no
// payload.
func (rt *freeRuntime) recycle(sub *submission) {
	for i := range sub.reqs {
		sub.reqs[i] = request{sub: sub}
	}
	rt.pool(len(sub.reqs)).Put(sub)
}

func (rt *freeRuntime) complete(r *request) { r.sub.release(1) }

func (rt *freeRuntime) await(_ *sched.Proc, ctx context.Context, sub *submission, sent int) error {
	if sent == 0 {
		return nil
	}
	if unsent := len(sub.reqs) - sent; unsent > 0 {
		sub.release(unsent)
	}
	if ctx.Done() == nil {
		// Fast path: an undeadlined context cannot abandon the wait, so the
		// bare channel receive of the original serving tier suffices.
		<-sub.done
		return nil
	}
	select {
	case <-sub.done:
		return nil
	case <-ctx.Done():
		return ErrDeadline
	}
}

func (rt *freeRuntime) awaitUntil(_ *sched.Proc, sub *submission, deadline int64) error {
	d := time.Until(time.Unix(0, deadline))
	if d <= 0 {
		select {
		case <-sub.done:
			return nil
		default:
			return ErrDeadline
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-sub.done:
		return nil
	case <-t.C:
		return ErrDeadline
	}
}

func (rt *freeRuntime) sleep(_ *sched.Proc, d int64) { time.Sleep(time.Duration(d)) }

func (rt *freeRuntime) trapPanics() bool { return true }

func (rt *freeRuntime) backoffDefaults() (int64, int64) {
	return int64(time.Millisecond), int64(100 * time.Millisecond)
}

// freeQueue wraps a buffered channel; senders hold the runtime's submit
// read-lock (see beginSubmit), so close never races a send. depth is the
// live effective admission bound (config reload can shrink it below the
// channel capacity).
type freeQueue struct {
	ch    chan *request
	depth func() int
}

func (q *freeQueue) send(_ *sched.Proc, ctx context.Context, r *request) error {
	// Soft reload bound: when the effective depth is below the channel's
	// boot capacity, admission polls instead of relying on the channel's own
	// bound. The fast path (depth == capacity, the common case) is the
	// original single select. Racing senders can overshoot the soft bound by
	// at most the sender count, never past the boot capacity.
	for {
		eff := q.depth()
		if eff >= cap(q.ch) {
			break
		}
		if len(q.ch) < eff {
			select {
			case q.ch <- r:
				return nil
			default:
				// Lost the slot race; re-check.
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ErrSaturated
		default:
		}
		time.Sleep(50 * time.Microsecond)
	}
	select {
	case q.ch <- r:
		return nil
	case <-ctx.Done():
		return ErrSaturated
	}
}

func (q *freeQueue) receiver() receiver {
	return &freeReceiver{ch: q.ch, ticker: time.NewTicker(syncInterval)}
}

func (q *freeQueue) close() { close(q.ch) }

func (q *freeQueue) len() int { return len(q.ch) }

// freeReceiver owns one worker's idle-sync ticker.
type freeReceiver struct {
	ch     chan *request
	ticker *time.Ticker
}

func (rc *freeReceiver) recv(_ *sched.Proc) (*request, bool, bool) {
	select {
	case r, ok := <-rc.ch:
		return r, false, ok
	case <-rc.ticker.C:
		return nil, true, true
	}
}

func (rc *freeReceiver) tryRecv(_ *sched.Proc) (*request, bool) {
	select {
	case r, ok := <-rc.ch:
		if !ok {
			return nil, false
		}
		return r, true
	default:
		return nil, false
	}
}

func (rc *freeReceiver) stop() { rc.ticker.Stop() }

// freeMailbox is the auditor's channel-backed record queue.
type freeMailbox struct {
	ch chan auditRecord
}

func (m *freeMailbox) offer(rec auditRecord) bool {
	select {
	case m.ch <- rec:
		return true
	default:
		return false
	}
}

func (m *freeMailbox) take(_ *sched.Proc) (auditRecord, bool) {
	rec, ok := <-m.ch
	return rec, ok
}

func (m *freeMailbox) close() { close(m.ch) }

// freeNotifier is the channel-backed death-notice queue. Its capacity is
// sized by the store to the worst-case notice count (every slot crashing
// through its whole restart budget, plus clean exits and the sentinel), so
// post never blocks in practice.
type freeNotifier struct {
	ch chan deathEvent
}

func (n *freeNotifier) post(ev deathEvent) { n.ch <- ev }

func (n *freeNotifier) wait(*sched.Proc) deathEvent { return <-n.ch }
