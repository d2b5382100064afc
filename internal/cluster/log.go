package cluster

import (
	"context"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wire"
)

// shardRep is one shard's replica on a store node: the replicated log,
// the follower and voter bookkeeping every replica keeps, and the state of
// the role it plays beyond that — own while it owns the shard, cand while
// it campaigns for it (never both). All fields are event-loop-owned.
type shardRep struct {
	shard int
	epoch uint64
	owner NodeID

	// Replicated log. entries holds seqs (base, frontier]. Appending never
	// touches the store: applyCommitted alone drives (applied, committed]
	// through it, in log order, so the store is a fold over the decided
	// prefix and everything above committed can be dropped. Always
	// base ≤ applied ≤ committed ≤ match ≤ frontier.
	base      uint64
	entries   []wire.RepEntry
	frontier  uint64
	lastEpoch uint64 // epoch of the entry at frontier (0 when log empty)
	// match is the prefix checked entry by entry against the log of the
	// current epoch's owner (an owner's own frontier): a follower appends
	// only at match+1, acks match and commits no further. What lies above
	// it is a deposed owner's suffix until the new owner's stream says
	// otherwise, so a new epoch resets it to committed.
	match     uint64
	committed uint64
	applied   uint64
	// refused latches a request to replace an entry at or below committed:
	// only an owner that answered before a quorum held the entry can cause
	// one, so the virtual runs' checker reports it (check.go).
	refused bool

	lastOwnerHeard int64
	// ackOwed: an ack is owed to the owner and will piggyback on the next
	// outbound frame toward it (or a heartbeat at the end of the loop
	// iteration — see flushAcks). Only a follower ever owes one.
	ackOwed bool
	// votedEpoch is the highest epoch this replica granted (its own
	// candidacies included): one vote per epoch.
	votedEpoch uint64

	// arena holds the ops of the routes queued here and of the entries
	// this replica keeps: copies of what frames carried (message's
	// ownership rule), in write-once chunks.
	arena opArena

	own  *ownerState // non-nil exactly while this node owns the shard
	cand *candidacy  // non-nil exactly while this node campaigns for it
}

// status is the replica's ShardStatus, for Status readers and checkers.
func (sr *shardRep) status() ShardStatus {
	return ShardStatus{
		Shard: sr.shard, Owner: sr.owner, Epoch: sr.epoch, IsOwner: sr.own != nil,
		Frontier: sr.frontier, Committed: sr.committed,
	}
}

// minLogCap is the least capacity appendLocal gives a new entries array:
// with a window that drains between calls the retained log is a few entries,
// and doubling that would buy a new array every few appends.
const minLogCap = 64

func (sr *shardRep) appendLocal(e wire.RepEntry) {
	if len(sr.entries) == cap(sr.entries) {
		// truncate advances entries through its array, so a full array is
		// mostly dropped prefix. The retained entries move to a new one and
		// no slot is ever written twice: a frame the virtual network still
		// holds may point into the old array.
		grown := make([]wire.RepEntry, len(sr.entries), max(2*len(sr.entries), minLogCap))
		copy(grown, sr.entries)
		sr.entries = grown
	}
	sr.entries = append(sr.entries, e)
	sr.frontier = e.Seq
	sr.lastEpoch = e.Epoch
}

// entryAt returns the retained entry with the given seq, nil if truncated
// or beyond the frontier.
func (sr *shardRep) entryAt(seq uint64) *wire.RepEntry {
	if seq <= sr.base || seq > sr.frontier {
		return nil
	}
	return &sr.entries[seq-sr.base-1]
}

// entriesFrom returns up to max retained entries starting at seq.
func (sr *shardRep) entriesFrom(seq uint64, max int) []wire.RepEntry {
	if seq <= sr.base || seq > sr.frontier {
		return nil
	}
	i := int(seq - sr.base - 1)
	return sr.entries[i:min(i+max, len(sr.entries))]
}

// truncate drops retained entries with seq ≤ below, in place: the dropped
// prefix is cleared, so the ops it held are collectable while the array
// lives on, and entries advances past it (appendLocal moves to a new array
// when this one is used up). To a frame that still points at a cleared slot
// the entry reads as seq 0, below every log floor, and onAppend skips it.
func (sr *shardRep) truncate(below uint64) {
	if below <= sr.base {
		return
	}
	cut := min(below-sr.base, uint64(len(sr.entries)))
	clear(sr.entries[:cut])
	sr.entries = sr.entries[cut:]
	sr.base += cut
}

// applyCommitted drives the committed entries the local store has not seen
// through it in log order — the only path into the store, on owners and
// followers alike — and, on the owner, answers each entry's routes with
// the results of that call.
func (n *Node) applyCommitted(p *sched.Proc, sr *shardRep) {
	for sr.applied < sr.committed {
		e := sr.entryAt(sr.applied + 1)
		var results []service.Result
		if len(e.Ops) > 0 && (sr.own != nil || n.bug != bugSkipApply) {
			var err error
			if results, err = n.apply(p, sr.shard, e.Ops); err != nil {
				// Closing or saturated: the entry stays committed, tick retries.
				n.cfg.Logf("cluster: node %d shard %d: apply: %v", n.cfg.ID, sr.shard, err)
				return
			}
			n.cEntriesApp.Inc()
		}
		sr.applied = e.Seq
		if n.rec != nil {
			n.rec[sr.shard] = append(n.rec[sr.shard], *e)
		}
		if sr.own != nil {
			n.answer(p, sr, e.Seq, results)
		}
	}
}

// apply drives ops through the shard's local store (the idempotent
// universal construction: ops with ids already applied replay their cached
// results).
func (n *Node) apply(p *sched.Proc, shard int, ops []service.Op) ([]service.Result, error) {
	if p != nil {
		return n.stores[shard].DoBatchOn(p, ops)
	}
	return n.stores[shard].DoBatch(context.Background(), ops)
}
