package cluster

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/wire"
)

// This file is the virtual runs' exhaustive correctness checker. After a
// controlled run finishes, checkRun reconstructs the ground truth from the
// replica chains and judges every client observation against it. The nodes
// cut their logs exactly as production does, so a replica's chain is two
// parts joined (Node.chain): the entries it applied, from the append-only
// recorder the harness installs (Node.rec), and its kept log above applied
// — truncation never cuts above applied, so the join is the whole log.
//
//  1. Canonical chain. Per shard, the canonical committed history is the
//     chain of the replica with the lexicographically greatest (last-entry
//     epoch, frontier) — by the election safety argument (cluster.go's
//     safety notes) that chain contains every entry whose client was
//     answered.
//  2. Committed-prefix agreement. Every pair of replicas must agree
//     (epoch and ops) on every seq both have committed — a disagreement
//     is a split brain — and no replica may have been asked to replace
//     an entry it had committed (shardRep.refused): commit-then-apply
//     never undoes, so the request alone proves an owner answered before
//     a quorum held the entry.
//  3. Replay. The canonical chain is replayed through the sequential
//     state-machine semantics (get/put/cas over per-key registers, with
//     op-ID dedup exactly like the store's) to recover the result every
//     op must have produced. An answered op that is missing from the
//     chain, or whose observed result differs from the replay, is a
//     violation — this is what catches a stale read served after a botched
//     failover.
//  4. Linearizability. The client-observed real-time history (answered
//     ops with their intervals, plus committed-but-unanswered ops open
//     until run end, with replayed outputs) must be per-key linearizable
//     under spec.CASRegisterModel — checked exhaustively via
//     spec.CheckPartitioned, no sampling.
type opObs struct {
	sub      int // submitter proc id
	op       service.Op
	call     int64
	ret      int64
	res      service.Result
	answered bool
}

// obsLog collects the client-side ground truth of one virtual run. All
// writes happen under the run's step token.
type obsLog struct {
	obs []*opObs
	// sawStale is the client-visible staleness detector (the canary's
	// ground truth): an answered get contradicting the SAME submitter's
	// latest answered put (per-submitter, because another client's
	// interleaved write is a legal explanation for a different value).
	sawStale bool
	lastPut  map[int]map[string]string
}

// trackStale feeds one answered op into the staleness detector.
func (l *obsLog) trackStale(sub int, op service.Op, res service.Result) {
	if l.lastPut == nil {
		l.lastPut = map[int]map[string]string{}
	}
	mine := l.lastPut[sub]
	switch op.Kind {
	case service.OpPut:
		if mine == nil {
			mine = map[string]string{}
			l.lastPut[sub] = mine
		}
		mine[op.Key] = op.Val
	case service.OpGet:
		if want, ok := mine[op.Key]; ok && res.Val != want {
			l.sawStale = true
		}
	}
}

// replayState is the checker's copy of one shard's sequential state
// machine: per-key registers plus the op-ID dedup table (unbounded — the
// store's FIFO bound never evicts at scenario workload sizes).
type replayState struct {
	vals   map[string]string
	exists map[string]bool
	dedup  map[uint64]service.Result
}

func newReplayState() *replayState {
	return &replayState{vals: map[string]string{}, exists: map[string]bool{}, dedup: map[uint64]service.Result{}}
}

// step applies one op with the exact semantics of the store's applyBatch.
func (rs *replayState) step(op service.Op) service.Result {
	if op.ID != 0 {
		if res, hit := rs.dedup[op.ID]; hit {
			return res
		}
	}
	var res service.Result
	switch op.Kind {
	case service.OpGet:
		res = service.Result{Val: rs.vals[op.Key], OK: rs.exists[op.Key]}
	case service.OpPut:
		res = service.Result{Val: op.Val, OK: true}
		rs.vals[op.Key], rs.exists[op.Key] = op.Val, true
	case service.OpCAS:
		if rs.vals[op.Key] == op.Old {
			rs.vals[op.Key], rs.exists[op.Key] = op.Val, true
			res = service.Result{Val: op.Val, OK: true}
		} else {
			res = service.Result{Val: rs.vals[op.Key], OK: false}
		}
	}
	if op.ID != 0 {
		rs.dedup[op.ID] = res
	}
	return res
}

// checkRun judges one finished virtual run: nodes are every node of the
// deployment (their event loops must have exited), obs the client ground
// truth, end a time past every client return (unanswered ops stay open
// until it). It returns one description per violation.
func checkRun(nodes []*Node, obs *obsLog, end int64) []string {
	var out []string
	cfg := nodes[0].cfg
	expected := map[uint64]service.Result{} // op ID -> replayed result, all shards
	for s := 0; s < cfg.Shards; s++ {
		// Canonical replica: greatest (lastEpoch, frontier).
		var canon *shardRep
		var canonNode NodeID
		for _, id := range cfg.StoreNodes {
			sr := nodes[id].shards[s]
			if sr.refused {
				out = append(out, fmt.Sprintf(
					"shard %d: node %d was asked to replace an entry it had committed", s, id))
			}
			if canon == nil || sr.lastEpoch > canon.lastEpoch ||
				(sr.lastEpoch == canon.lastEpoch && sr.frontier > canon.frontier) {
				canon, canonNode = sr, id
			}
		}
		canonChain := nodes[canonNode].chain(s)
		// Committed-prefix agreement across replicas.
		for _, id := range cfg.StoreNodes {
			sr := nodes[id].shards[s]
			if id == canonNode {
				continue
			}
			other := nodes[id].chain(s)
			for seq := uint64(1); seq <= min(sr.committed, canon.committed); seq++ {
				a, b := canonChain[seq-1], other[seq-1]
				if a.Epoch != b.Epoch || !slices.Equal(a.Ops, b.Ops) {
					out = append(out, fmt.Sprintf(
						"shard %d: split brain — node %d and node %d committed different entries at seq %d",
						s, canonNode, id, seq))
					break
				}
			}
		}
		// Replay the canonical chain.
		rs := newReplayState()
		for _, e := range canonChain {
			for _, op := range e.Ops {
				res := rs.step(op)
				if op.ID != 0 {
					if _, seen := expected[op.ID]; !seen {
						expected[op.ID] = res
					}
				}
			}
		}
	}

	// Judge the client observations against the replay, and build the
	// real-time history for the linearizability check.
	var history []spec.KeyedOp[spec.CASOp]
	for _, o := range obs.obs {
		want, committed := expected[o.op.ID]
		if o.answered && !committed {
			out = append(out, fmt.Sprintf(
				"op %d (%s %q) answered to submitter %d but absent from the canonical chain",
				o.op.ID, o.op.Kind, o.op.Key, o.sub))
			continue
		}
		if o.answered && o.res != want {
			out = append(out, fmt.Sprintf(
				"op %d (%s %q): submitter %d observed %+v but the canonical replay yields %+v",
				o.op.ID, o.op.Kind, o.op.Key, o.sub, o.res, want))
			continue
		}
		if !committed {
			continue // never applied anywhere canonical: no effect to check
		}
		res, ret := o.res, o.ret
		if !o.answered {
			// Committed but unanswered: it took effect at some point after
			// its call, with the replayed result.
			res, ret = want, end
		}
		sop := service.SpecOp(o.op, res)
		sop.Proc, sop.Call, sop.Ret = o.sub, o.call, ret
		history = append(history, spec.KeyedOp[spec.CASOp]{Key: o.op.Key, Op: sop})
	}
	for _, v := range spec.CheckPartitioned(spec.CASRegisterModel{Initial: ""}, history, spec.MaxWindowOps) {
		switch v.Result {
		case spec.Violation:
			out = append(out, fmt.Sprintf("key %q: %d-op client history is not linearizable", v.Key, v.Ops))
		case spec.Truncated:
			out = append(out, fmt.Sprintf("key %q: %d ops exceed the checker window — shrink the workload", v.Key, v.Ops))
		}
	}
	sort.Strings(out)
	return out
}

// chain returns the replica's whole log of one shard, seq 1 to frontier:
// the applied entries from the recorder, then the kept log above applied.
// The recorder must be installed (rec non-nil) before the node runs.
func (n *Node) chain(shard int) []wire.RepEntry {
	sr, done := n.shards[shard], n.rec[shard]
	return append(done[:len(done):len(done)], sr.entriesFrom(sr.applied+1, int(sr.frontier-sr.applied))...)
}
