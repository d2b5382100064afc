package service

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/spec"
)

// AuditConfig tunes the online linearizability auditor.
type AuditConfig struct {
	// Disabled turns auditing off entirely.
	Disabled bool
	// SampleFraction is the fraction of the keyspace audited, selected by
	// key hash so a key is either always audited or never (windows must see
	// every op on their key). Default 1 (audit everything).
	SampleFraction float64
	// WindowOps is the number of ops per checked window. It is capped at
	// spec.MaxWindowOps. Default 16.
	WindowOps int
	// QueueDepth bounds the record queue between the serving path and the
	// auditor goroutine. When it overflows, records are dropped — never
	// blocking the serving path — and the affected windows are discarded
	// (counted in AuditStats.Gaps), not mis-checked. Default 8192.
	QueueDepth int
}

const (
	// maxViolationSamples caps the retained violation descriptions.
	maxViolationSamples = 8
	// maxTrackedKeys bounds the auditor's per-key window table. Records for
	// keys beyond the bound are dropped (counted in AuditStats.DroppedOps).
	maxTrackedKeys = 1 << 16
)

func (c AuditConfig) withDefaults() AuditConfig {
	if c.SampleFraction <= 0 || c.SampleFraction > 1 {
		c.SampleFraction = 1
	}
	if c.WindowOps <= 0 {
		c.WindowOps = 16
	}
	if c.WindowOps > spec.MaxWindowOps {
		c.WindowOps = spec.MaxWindowOps
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8192
	}
	return c
}

// AuditStats is the auditor's progress report.
type AuditStats struct {
	// SampledOps counts records accepted onto the audit queue.
	SampledOps int64 `json:"sampled_ops"`
	// DroppedOps counts records lost to a full queue or table bound; each
	// drop also discards its key's in-progress window (see Gaps).
	DroppedOps int64 `json:"dropped_ops"`
	// WindowsChecked counts completed linearizability checks.
	WindowsChecked int64 `json:"windows_checked"`
	// Violations counts windows with no valid linearization.
	Violations int64 `json:"violations"`
	// Truncated counts windows skipped by the spec package's size bound.
	Truncated int64 `json:"truncated"`
	// Gaps counts windows discarded because a sampling gap broke version
	// contiguity (a discarded window is "not audited", never "passed").
	Gaps int64 `json:"gaps"`
	// ViolationSamples holds up to maxViolationSamples descriptions.
	ViolationSamples []string `json:"violation_samples,omitempty"`
}

// auditRecord is one completed op on its way to the auditor. It is
// strings and scalars from here to the verdict — nothing is boxed — so the
// record path (observe, the mailbox, a window's ops, the check) allocates
// nothing in steady state (TestAuditObserveZeroAllocs).
type auditRecord struct {
	key string
	ver uint64
	op  spec.CASOp
}

// SpecOp states op and its result as the checker's operation, the one
// translation between the store's commands and spec.CASRegisterModel. The
// caller stamps Proc, Call and Ret.
func SpecOp(op Op, res Result) spec.CASOp {
	switch op.Kind {
	case OpGet:
		return spec.CASOp{Kind: spec.Read, Val: res.Val}
	case OpPut:
		return spec.CASOp{Kind: spec.Write, Val: op.Val}
	case OpCAS:
		return spec.CASOp{Kind: spec.CAS, Old: op.Old, Val: op.Val, OK: res.OK}
	}
	return spec.CASOp{}
}

// window accumulates one key's contiguous run of operations.
type window struct {
	// next is the version the run needs to stay contiguous (0 = adopt the
	// next record's version as the start).
	next uint64
	ops  []spec.CASOp
	// pending holds out-of-order records (a worker that committed version v
	// can be preempted before recording it while another worker records
	// v+1). They are drained into ops as contiguity restores. Most keys
	// never see one, so the map is made by the first record parked.
	pending map[uint64]spec.CASOp
}

// auditor checks sampled per-key windows of the live history against the
// object's sequential specification, in the background. Soundness rests on
// the per-key versions assigned by the replicated state machine: a window
// is only ever checked when it is a gap-free slice of its key's history, so
// dropped records and out-of-order arrival can reduce coverage but can
// never produce a false verdict. Windows are checked with an unconstrained
// initial value (spec.CASRegisterModel.UnknownInit), which is exactly right
// for a slice cut from the middle of a history.
type auditor struct {
	cfg     AuditConfig
	maxKeys int // the per-key window table's bound, maxTrackedKeys
	in      mailbox
	// join blocks until the auditor proc has exited; the Store sets it when
	// it spawns the auditor on the runtime.
	join func(*sched.Proc)

	sampled atomic.Int64
	dropped atomic.Int64
	// sample holds math.Float64bits of the live sample fraction: SampleFraction
	// is read per committed op on the serving path, and config reload swaps it
	// without a lock.
	sample atomic.Uint64

	// checker is the window check's model and scratch, reused from window
	// to window; only the auditor proc (run) touches it.
	checker *spec.Checker[spec.CASState, spec.CASOp]

	mu             sync.Mutex
	windowsChecked int64
	violations     int64
	truncated      int64
	gaps           int64
	samples        []string
}

// newAuditor builds an auditor on the runtime's mailbox. The caller spawns
// a.run on the runtime (the auditor is a managed proc like the workers, so
// a virtual run's policy can starve it).
func newAuditor(cfg AuditConfig, rt Runtime) *auditor {
	a := &auditor{cfg: cfg, maxKeys: maxTrackedKeys, in: rt.newMailbox(cfg.QueueDepth),
		checker: spec.NewChecker(spec.CASRegisterModel{UnknownInit: true})}
	a.setSampleFraction(cfg.SampleFraction)
	return a
}

// setSampleFraction swaps the live sample fraction (config reload).
func (a *auditor) setSampleFraction(f float64) {
	a.sample.Store(math.Float64bits(f))
}

// sampled reports whether key is in the audited slice of the keyspace.
func (a *auditor) sampledKey(key string) bool {
	f := math.Float64frombits(a.sample.Load())
	if f >= 1 {
		return true
	}
	return float64(keyHash(key)%1024) < f*1024
}

// observe offers one committed op to the auditor. It never blocks: when the
// queue is full the record is dropped, which the auditor will detect as a
// version gap and discard the affected window.
func (a *auditor) observe(proc int, e *batchEntry, ret int64) {
	if !a.sampledKey(e.op.Key) {
		return
	}
	rec := auditRecord{key: e.op.Key, ver: e.ver, op: SpecOp(e.op, e.res)}
	rec.op.Proc, rec.op.Call, rec.op.Ret = proc, e.call, ret
	if a.in.offer(rec) {
		a.sampled.Add(1)
	} else {
		a.dropped.Add(1)
	}
}

// run is the auditor proc: it assembles version-contiguous per-key windows
// and checks each completed window. On the free runtime it is a goroutine
// draining a channel; on the virtual runtime it is a scheduled proc whose
// mailbox polls charge steps, so an adversarial policy can starve auditing
// (which costs coverage, never soundness).
func (a *auditor) run(p *sched.Proc) {
	windows := make(map[string]*window)
	for {
		rec, ok := a.in.take(p)
		if !ok {
			break
		}
		w := windows[rec.key]
		if w == nil {
			if len(windows) >= a.maxKeys {
				a.dropped.Add(1)
				continue
			}
			w = &window{}
			windows[rec.key] = w
		}
		a.ingest(rec.key, w, rec)
	}
	// Shutdown flush: every accumulated contiguous run is still a valid
	// window; check them all.
	keys := make([]string, 0, len(windows))
	for key := range windows {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if w := windows[key]; len(w.ops) > 0 {
			a.check(key, w.ops)
		}
	}
}

// ingest threads one record into its key's window, maintaining version
// contiguity, and checks the window when it fills.
func (a *auditor) ingest(key string, w *window, rec auditRecord) {
	switch {
	case w.next == 0:
		// Fresh window: adopt this record as the start of the run.
		w.ops = append(w.ops[:0], rec.op)
		w.next = rec.ver + 1
	case rec.ver == w.next:
		w.ops = append(w.ops, rec.op)
		w.next = rec.ver + 1
	case rec.ver > w.next:
		// Out of order (or a drop). Park it; if the hole doesn't fill
		// before the parking lot grows past a window's worth of records,
		// declare a gap and restart from the oldest parked record.
		if w.pending == nil {
			w.pending = make(map[uint64]spec.CASOp)
		}
		w.pending[rec.ver] = rec.op
		if len(w.pending) > a.cfg.WindowOps {
			a.restart(key, w)
		}
		return
	default:
		// A version below the run: records for one version are unique, so
		// this means the window was restarted past it; ignore.
		return
	}
	a.advance(key, w)
}

// advance drains parked records that restore contiguity and checks the
// window every time it reaches WindowOps ops. After a completed window,
// w.next stands: the next window continues the contiguous run.
func (a *auditor) advance(key string, w *window) {
	for {
		if len(w.ops) >= a.cfg.WindowOps {
			a.check(key, w.ops)
			w.ops = w.ops[:0]
		}
		op, ok := w.pending[w.next]
		if !ok {
			return
		}
		delete(w.pending, w.next)
		w.ops = append(w.ops, op)
		w.next++
	}
}

// restart abandons a window whose version run can no longer be completed
// (a record was dropped). The accumulated contiguous prefix is still a
// valid window — check it — then restart the run at the oldest parked
// record.
func (a *auditor) restart(key string, w *window) {
	if len(w.ops) > 0 {
		a.check(key, w.ops)
		w.ops = w.ops[:0]
	}
	a.mu.Lock()
	a.gaps++
	a.mu.Unlock()
	var oldest uint64
	for ver := range w.pending {
		if oldest == 0 || ver < oldest {
			oldest = ver
		}
	}
	w.next = oldest
	a.advance(key, w)
}

// check runs the bounded linearizability check on one window and records
// the verdict.
func (a *auditor) check(key string, ops []spec.CASOp) {
	res := a.checker.CheckBounded(ops, spec.MaxWindowOps)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.windowsChecked++
	switch res {
	case spec.Violation:
		a.violations++
		if len(a.samples) < maxViolationSamples {
			a.samples = append(a.samples, fmt.Sprintf(
				"key %q: %d-op window has no valid linearization", key, len(ops)))
		}
	case spec.Truncated:
		a.truncated++
	}
}

// close flushes and stops the auditor, joining its proc on behalf of p
// (nil on the free runtime). Callers must guarantee no further observe
// calls (the Store closes it only after all workers exit).
func (a *auditor) close(p *sched.Proc) {
	a.in.close()
	a.join(p)
}

// stats snapshots the auditor's counters.
func (a *auditor) stats() AuditStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AuditStats{
		SampledOps:       a.sampled.Load(),
		DroppedOps:       a.dropped.Load(),
		WindowsChecked:   a.windowsChecked,
		Violations:       a.violations,
		Truncated:        a.truncated,
		Gaps:             a.gaps,
		ViolationSamples: append([]string(nil), a.samples...),
	}
}
