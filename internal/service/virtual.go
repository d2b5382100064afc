package service

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/sched"
)

// virtualSyncSteps is the virtual runtime's idle-sync interval: a worker
// that has been granted this many run steps without receiving a request
// catches its replica up to the shard frontier and truncates the log (the
// controlled-mode analogue of the free runtime's syncInterval ticker).
const virtualSyncSteps = 64

// VirtualRuntime executes a Store inside one controlled sched.Run: every
// worker and the auditor is a scheduled proc, every blocking point (full
// queue, empty queue, completion wait, join) is a cooperative Park poll
// that charges scheduler steps, and time is the run's granted-step count.
// The scheduling Policy is therefore a full adversary over the serving
// tier — it can interleave submitters and workers arbitrarily, crash
// workers mid-window, starve the auditor, or stall a submitter — and every
// run is deterministic in the policy, so any failure replays exactly.
//
// Construction order fixes the proc layout: NewVirtual spawns the auditor
// on proc firstProc (when auditing is enabled), then the workers on the
// following ids in shard-major order, then — when supervision is enabled —
// one supervisor per shard and finally the respawn seat pool. Client
// submitters and any driver procs are the scenario's own, registered on
// ids below firstProc, and use DoOn/DoBatchOn/CloseOn with their proc
// handle.
//
// A VirtualRuntime also records the complete committed history of the run
// (every command decided into any shard log, answered or not), so a
// scenario can check exhaustive, gap-free per-key linearizability after
// the run — no sampling, unlike the online auditor. See CheckHistory.
type VirtualRuntime struct {
	run    *sched.Run
	base   int
	next   int
	closed bool
	rec    *historyRecorder

	// Respawn seat pool: a controlled run cannot add procs after Execute,
	// so supervision pre-spawns seats — parked procs that each wait for a
	// worker incarnation to run (see provision). seatsClosed releases the
	// idle ones at store close.
	seats       []*spareSeat
	seatsClosed bool
}

// spareSeat is one pre-spawned respawn proc. fn is the incarnation the
// supervisor assigned (nil while idle — a seat that is running keeps fn
// set until the incarnation returns cleanly, and a crashed incarnation
// takes its seat down with it: exited flips and the seat is never reused).
type spareSeat struct {
	fn     func(*sched.Proc)
	exited bool
}

// NewVirtualRuntime returns a runtime that spawns the store's procs on
// run ids firstProc, firstProc+1, ... — the caller keeps ids below
// firstProc for its own submitter and driver procs.
func NewVirtualRuntime(run *sched.Run, firstProc int) *VirtualRuntime {
	return &VirtualRuntime{run: run, base: firstProc, rec: newHistoryRecorder()}
}

// NewVirtual starts a store on the virtual runtime. Nothing executes until
// the caller's run does; the store's procs are registered on the run and
// scheduled by its policy. Clients must use DoOn/DoBatchOn/CloseOn from
// procs of the same run.
func NewVirtual(cfg Config, vr *VirtualRuntime) *Store {
	return newStore(cfg, vr)
}

// Workload tunes the client scripts of the deterministic sims built on
// NewVirtual, this package's and internal/cluster's.
type Workload struct {
	Keys    []string // key pool
	HotFrac float64  // probability an op hits Keys[0] (key skew)
	CASFrac float64  // probability of a cas (the rest split get/put)
	Ops     int      // ops per submitter
	MaxCall int      // max ops grouped into one client call (1 = singles)
}

// GenCalls generates one submitter's script: each inner slice is one client
// call (len 1 = a single op, longer = a batch). Values are globally unique
// ("p<sub>v<j>") so every write is distinguishable to the checker. The
// script is a pure function of the workload, sub and rng's state.
func (wl Workload) GenCalls(sub int, rng *rand.Rand) [][]Op {
	pick := func() Op {
		key := wl.Keys[0]
		if rng.Float64() >= wl.HotFrac {
			key = wl.Keys[rng.IntN(len(wl.Keys))]
		}
		switch {
		case rng.Float64() < wl.CASFrac:
			// Old drawn from the values this run plausibly wrote; most cas
			// attempts fail, which is fine — failed cas legality is checked
			// too.
			return Op{Kind: OpCAS, Key: key,
				Old: fmt.Sprintf("p%dv%d", rng.IntN(4), rng.IntN(wl.Ops)),
				Val: fmt.Sprintf("p%dv%d", sub, rng.IntN(wl.Ops))}
		case rng.IntN(2) == 0:
			return Op{Kind: OpGet, Key: key}
		default:
			return Op{Kind: OpPut, Key: key, Val: fmt.Sprintf("p%dv%d", sub, rng.IntN(wl.Ops))}
		}
	}
	var calls [][]Op
	remaining := wl.Ops
	for remaining > 0 {
		n := 1
		if wl.MaxCall > 1 {
			n = 1 + rng.IntN(wl.MaxCall)
			if n > remaining {
				n = remaining
			}
		}
		c := make([]Op, n)
		for i := range c {
			c[i] = pick()
		}
		calls = append(calls, c)
		remaining -= n
	}
	return calls
}

// CheckHistory verifies the run's complete committed history after the
// run has executed: per-key exhaustive linearizability via internal/spec
// (with the known empty initial value — the history is complete from time
// zero, so no UnknownInit over-approximation is needed), per-key version
// contiguity (the gap-free guarantee), and that every answered request was
// actually committed. It returns one description per violation (nil means
// the run's history is linearizable).
func (vr *VirtualRuntime) CheckHistory() []string { return vr.rec.check() }

// CommittedOps returns the number of commands decided into the shard logs
// during the run (including commands whose clients were never answered).
func (vr *VirtualRuntime) CommittedOps() int { return len(vr.rec.records) }

func (vr *VirtualRuntime) now(p *sched.Proc) int64 { return p.Now() }

func (vr *VirtualRuntime) newQueue(capacity int, depth func() int) queue {
	return &virtualQueue{vr: vr, capacity: capacity, depth: depth}
}

func (vr *VirtualRuntime) newMailbox(capacity int) mailbox {
	return &virtualMailbox{capacity: capacity}
}

// beginSubmit needs no lock: in a controlled run all state is serialized
// by the step token, and the virtual queues re-check closed at every poll,
// so a Close landing while a sender is parked is observed as ErrClosed.
func (vr *VirtualRuntime) beginSubmit() error {
	if vr.closed {
		return ErrClosed
	}
	return nil
}

func (vr *VirtualRuntime) endSubmit() {}

func (vr *VirtualRuntime) markClosed() error {
	if vr.closed {
		return ErrClosed
	}
	vr.closed = true
	return nil
}

func (vr *VirtualRuntime) spawn(fn func(*sched.Proc)) func(*sched.Proc) {
	id := vr.base + vr.next
	vr.next++
	exited := new(bool)
	vr.run.Spawn(id, func(p *sched.Proc) {
		// The flag is set on every exit path: normal return, a crash
		// injected by the policy, or the end-of-run unwind (the scheduler
		// runs deferred functions while unwinding a killed proc).
		defer func() { *exited = true }()
		fn(p)
	})
	return func(waiter *sched.Proc) {
		waiter.Park(func() bool { return *exited })
	}
}

// provision pre-spawns n respawn seats on the next proc ids. Each seat
// parks until the supervisor assigns it an incarnation (or the store
// closes); one seat serves at most one incarnation at a time but is
// reusable after a clean return. An incarnation that crashes unwinds the
// seat's proc — the scheduler accounts it Crashed — so that seat is spent.
func (vr *VirtualRuntime) provision(n int) {
	for i := 0; i < n; i++ {
		seat := &spareSeat{}
		vr.seats = append(vr.seats, seat)
		id := vr.base + vr.next
		vr.next++
		vr.run.Spawn(id, func(p *sched.Proc) {
			defer func() { seat.exited = true }()
			for {
				p.Park(func() bool { return seat.fn != nil || vr.seatsClosed })
				if seat.fn == nil {
					return
				}
				seat.fn(p)
				seat.fn = nil
			}
		})
	}
}

// respawn hands fn to the first idle seat; false means the pool is spent.
// Called under the step token (by a supervisor proc), so the first-idle
// choice is deterministic.
func (vr *VirtualRuntime) respawn(fn func(*sched.Proc)) bool {
	for _, seat := range vr.seats {
		if !seat.exited && seat.fn == nil {
			seat.fn = fn
			return true
		}
	}
	return false
}

func (vr *VirtualRuntime) closeSeats() { vr.seatsClosed = true }

func (vr *VirtualRuntime) joinSeats(waiter *sched.Proc) {
	for _, seat := range vr.seats {
		s := seat
		waiter.Park(func() bool { return s.exited })
	}
}

func (vr *VirtualRuntime) newNotifier(int) notifier { return &virtualNotifier{} }

func (vr *VirtualRuntime) submission(n int) *submission {
	sub := &submission{}
	sub.reset(n)
	return sub
}

func (vr *VirtualRuntime) recycle(*submission) {}

func (vr *VirtualRuntime) complete(r *request) { r.answered = true }

// await parks on each enqueued request in turn until it is answered — one
// park per request, in submission order, which is what every recorded
// schedule and step count was taken with. ctx is ignored: virtual runs model
// client abandonment with DoTimeoutOn deadlines (awaitUntil), crash plans
// and omission plans, not context cancellation.
func (vr *VirtualRuntime) await(p *sched.Proc, _ context.Context, sub *submission, sent int) error {
	for i := range sub.reqs[:sent] {
		r := &sub.reqs[i]
		p.Park(func() bool { return r.answered })
	}
	return nil
}

// awaitUntil is await bounded by the run's logical clock reaching deadline.
// An answer observed at the deadline still wins.
func (vr *VirtualRuntime) awaitUntil(p *sched.Proc, sub *submission, deadline int64) error {
	for i := range sub.reqs {
		r := &sub.reqs[i]
		p.Park(func() bool { return r.answered || p.Now() >= deadline })
		if !r.answered {
			return ErrDeadline
		}
	}
	return nil
}

func (vr *VirtualRuntime) sleep(p *sched.Proc, d int64) {
	t := p.Now() + d
	p.Park(func() bool { return p.Now() >= t })
}

// trapPanics is false: a virtual worker's crash signal must unwind into
// the scheduler, which accounts the proc Crashed exactly like a
// policy-injected crash (and the panic value never escapes Execute).
func (vr *VirtualRuntime) trapPanics() bool { return false }

func (vr *VirtualRuntime) backoffDefaults() (int64, int64) { return 16, 256 }

// virtualQueue is a deterministic bounded FIFO. All accesses are serialized
// by the run's step token; each poll charges one scheduler step, so the
// adversary decides exactly when a blocked sender or receiver gets to
// re-check.
type virtualQueue struct {
	vr       *VirtualRuntime
	capacity int
	depth    func() int // live effective bound, <= capacity (config reload)
	buf      []*request
	head     int
	closed   bool
}

// bound is the current admission bound: the smaller of the boot capacity
// and the reloaded effective depth. Reads happen under the step token, so
// a mid-run reload lands at a deterministic point of the schedule.
func (q *virtualQueue) bound() int {
	if d := q.depth(); d < q.capacity {
		return d
	}
	return q.capacity
}

func (q *virtualQueue) size() int { return len(q.buf) - q.head }

func (q *virtualQueue) pop() *request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return r
}

// send polls until the queue has space, one step per poll (the enqueue
// itself is the final polled step, so a submission is one atomic event of
// the run). ctx is ignored: virtual runs model abandonment with crash and
// omission plans, not context cancellation.
func (q *virtualQueue) send(p *sched.Proc, _ context.Context, r *request) error {
	for {
		p.Step()
		if q.closed {
			return ErrClosed
		}
		if q.size() < q.bound() {
			q.buf = append(q.buf, r)
			q.vr.rec.submit(r)
			return nil
		}
	}
}

func (q *virtualQueue) receiver() receiver { return &virtualReceiver{q: q, lastTick: -1} }

func (q *virtualQueue) close() { q.closed = true }

func (q *virtualQueue) len() int { return q.size() }

// virtualReceiver tracks one worker's idle-tick state against the run's
// logical clock.
type virtualReceiver struct {
	q        *virtualQueue
	lastTick int64
}

func (rc *virtualReceiver) recv(p *sched.Proc) (*request, bool, bool) {
	if rc.lastTick < 0 {
		rc.lastTick = p.Now()
	}
	for {
		p.Step()
		if rc.q.size() > 0 {
			return rc.q.pop(), false, true
		}
		if rc.q.closed {
			return nil, false, false
		}
		if p.Now()-rc.lastTick >= virtualSyncSteps {
			rc.lastTick = p.Now()
			return nil, true, true
		}
	}
}

func (rc *virtualReceiver) tryRecv(p *sched.Proc) (*request, bool) {
	p.Step()
	if rc.q.size() > 0 {
		return rc.q.pop(), true
	}
	return nil, false
}

func (rc *virtualReceiver) stop() {}

// virtualMailbox is the auditor's deterministic bounded record queue.
type virtualMailbox struct {
	capacity int
	buf      []auditRecord
	head     int
	closed   bool
}

func (m *virtualMailbox) size() int { return len(m.buf) - m.head }

func (m *virtualMailbox) offer(rec auditRecord) bool {
	if m.size() >= m.capacity {
		return false
	}
	m.buf = append(m.buf, rec)
	return true
}

func (m *virtualMailbox) take(p *sched.Proc) (auditRecord, bool) {
	for {
		p.Step()
		if m.size() > 0 {
			rec := m.buf[m.head]
			m.buf[m.head] = auditRecord{}
			m.head++
			if m.head == len(m.buf) {
				m.buf, m.head = m.buf[:0], 0
			}
			return rec, true
		}
		if m.closed {
			return auditRecord{}, false
		}
	}
}

func (m *virtualMailbox) close() { m.closed = true }

// virtualNotifier is the deterministic death-notice queue: post is a plain
// append (no scheduler step — it runs inside a crashing proc's deferred
// unwind, where taking a step would suspend the unwind), wait is a Park.
type virtualNotifier struct {
	buf  []deathEvent
	head int
}

func (n *virtualNotifier) post(ev deathEvent) { n.buf = append(n.buf, ev) }

func (n *virtualNotifier) wait(p *sched.Proc) deathEvent {
	p.Park(func() bool { return n.head < len(n.buf) })
	ev := n.buf[n.head]
	n.buf[n.head] = deathEvent{}
	n.head++
	if n.head == len(n.buf) {
		n.buf, n.head = n.buf[:0], 0
	}
	return ev
}
