package service

import (
	"fmt"
	"sort"

	"repro/internal/spec"
)

// histRecord is one committed command in the run's complete history,
// captured at the moment its log position was first applied by any
// replica. The recorded result is the ground truth computed by the
// deterministic state machine; if the client was answered, the check
// substitutes the client-observed result, so a serving path that lies to
// its clients is caught even when the state machine itself was right.
type histRecord struct {
	r   *request
	res Result // ground-truth result of the state machine
	ver uint64 // per-key version assigned by the replicated state machine
	ret int64  // logical clock at commit (within [call, client return])
	// alts are retries that were deduplicated against this record's op ID:
	// distinct requests whose command the state machine recognized as
	// already applied and answered from the remembered result. They are one
	// logical operation with r.
	alts []*request
}

// historyRecorder captures the complete committed history of a virtual
// run. It is written only under the run's step token (queue sends and
// first-apply of each log position), so it needs no locking, and its
// contents are deterministic in the run.
//
// Soundness of the post-run check rests on three facts:
//
//   - every decided log position is recorded exactly once (batches carry a
//     recorded flag; replicas apply positions in order), so the history has
//     no gaps — per-key version contiguity is additionally verified;
//   - a command that is absent from the history was never applied by any
//     replica, so excluding it cannot hide an observed effect;
//   - recorded intervals [call, ret] bracket the true linearization point
//     (the log decision happens after the enqueue and before any apply),
//     so real-time order constraints are valid — and tighter than the
//     client-observed ones, since ret is taken at commit, not at reply.
type historyRecorder struct {
	submitted []*request
	records   []histRecord
	// byID maps each op ID to the index of its first committed record, so
	// a second commit of the same ID — exactly what op-ID deduplication
	// exists to prevent — is detected as a violation, and dedup'd retries
	// can be aliased onto their primary.
	byID   map[uint64]int
	dupIDs []uint64
}

func newHistoryRecorder() *historyRecorder {
	return &historyRecorder{byID: map[uint64]int{}}
}

// submit registers an enqueued request, so the check can verify that every
// answered request was actually committed.
func (h *historyRecorder) submit(r *request) { h.submitted = append(h.submitted, r) }

// record captures one committed command with its ground-truth result.
func (h *historyRecorder) record(r *request, res Result, ver uint64, ret int64) {
	if id := r.op.ID; id != 0 {
		if _, dup := h.byID[id]; dup {
			// The same logical operation mutated state twice. Keep the
			// record — the double-apply really happened, and dropping it
			// would break version contiguity — but remember the breach.
			h.dupIDs = append(h.dupIDs, id)
		} else {
			h.byID[id] = len(h.records)
		}
	}
	h.records = append(h.records, histRecord{r: r, res: res, ver: ver, ret: ret})
}

// recordDup notes that r was recognized as a retry of an already-committed
// op ID and answered from the dedup table: it aliases r onto the primary
// record so the answered-implies-committed check accepts it.
func (h *historyRecorder) recordDup(r *request) {
	if i, ok := h.byID[r.op.ID]; ok {
		h.records[i].alts = append(h.records[i].alts, r)
	}
}

// specOp converts one record into a checker operation. Answered requests
// contribute the result their client actually observed; unanswered (e.g.
// the owning worker crashed after commit, before replying) contribute the
// ground truth, since no client saw anything.
func (rec histRecord) specOp() spec.CASOp {
	res := rec.res
	if rec.r.answered {
		res = rec.r.res
	} else {
		// The primary was never answered (e.g. its client abandoned the
		// wait), but a dedup'd retry may have been — that retry's observed
		// result speaks for the one logical operation.
		for _, a := range rec.alts {
			if a.answered {
				res = a.res
				break
			}
		}
	}
	op := SpecOp(rec.r.op, res)
	op.Call, op.Ret = rec.r.call, rec.ret
	return op
}

// check runs the exhaustive post-run audit; see VirtualRuntime.CheckHistory.
func (h *historyRecorder) check() []string {
	var out []string

	recorded := make(map[*request]bool, len(h.records))
	for _, rec := range h.records {
		if recorded[rec.r] {
			out = append(out, fmt.Sprintf(
				"history: %s on key %q committed twice", rec.r.op.Kind, rec.r.op.Key))
		}
		recorded[rec.r] = true
		for _, a := range rec.alts {
			recorded[a] = true
		}
	}
	for _, id := range h.dupIDs {
		out = append(out, fmt.Sprintf(
			"history: op id %d committed more than once — retry deduplication failed to stop a double-apply", id))
	}
	for _, r := range h.submitted {
		if r.answered && !recorded[r] {
			out = append(out, fmt.Sprintf(
				"history: answered %s on key %q was never committed", r.op.Kind, r.op.Key))
		}
	}

	// Per-key version contiguity: every key's committed versions must be
	// exactly 1..n — the gap-free guarantee the exhaustive check rests on.
	vers := map[string][]uint64{}
	for _, rec := range h.records {
		vers[rec.r.op.Key] = append(vers[rec.r.op.Key], rec.ver)
	}
	keys := make([]string, 0, len(vers))
	for key := range vers {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		vs := vers[key]
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for i, v := range vs {
			if v != uint64(i+1) {
				out = append(out, fmt.Sprintf(
					"history: key %q version sequence has a gap at %d (want %d)", key, v, i+1))
				break
			}
		}
	}

	// Exhaustive per-key linearizability over the complete history, from
	// the known empty initial value. Truncated is a hard failure: it would
	// mean part of the history went unchecked, which this checker — unlike
	// the sampling online auditor — must never silently accept.
	history := make([]spec.KeyedOp[spec.CASOp], 0, len(h.records))
	for _, rec := range h.records {
		history = append(history, spec.KeyedOp[spec.CASOp]{Key: rec.r.op.Key, Op: rec.specOp()})
	}
	for _, kv := range spec.CheckPartitioned(spec.CASRegisterModel{Initial: ""}, history, spec.MaxWindowOps) {
		switch kv.Result {
		case spec.Violation:
			out = append(out, fmt.Sprintf(
				"linearizability violated: key %q: %d-op complete history has no valid linearization",
				kv.Key, kv.Ops))
		case spec.Truncated:
			out = append(out, fmt.Sprintf(
				"history: key %q has %d ops, beyond the exhaustive checker's %d-op bound",
				kv.Key, kv.Ops, spec.MaxWindowOps))
		}
	}
	return out
}
