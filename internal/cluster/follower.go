package cluster

import (
	"repro/internal/sched"
	"repro/internal/wire"
)

// onAcks dispatches the piggybacked acks of one frame: appended-frontier
// acks feed the owner's commit machinery, commit keepalives feed the
// follower's.
func (n *Node) onAcks(p *sched.Proc, m *message) {
	from := NodeID(m.rep.From)
	for i := range m.rep.Acks {
		a := &m.rep.Acks[i]
		if int(a.Shard) >= n.cfg.Shards {
			continue
		}
		switch a.Kind {
		case wire.AckAppended:
			n.onAppendedAck(p, from, a)
		case wire.AckCommit:
			// The owner's heartbeat-borne keepalive: an append frame without
			// entries (Last carries the owner's log floor).
			if sr := n.shards[a.Shard]; n.heardOwner(p, sr, from, a.Epoch) {
				n.followCommit(p, sr, a.Frontier, a.Last)
			}
		}
	}
}

// heardOwner is the follower's first look at an owner frame: a deposed
// owner's is fenced with the current epoch (false), any other makes its
// sender the shard's owner.
func (n *Node) heardOwner(p *sched.Proc, sr *shardRep, from NodeID, epoch uint64) bool {
	if epoch < sr.epoch {
		n.sendRep(p, from, wire.OpcodeRepStale, wire.Rep{
			Shard: uint16(sr.shard), Epoch: sr.epoch, Peer: uint16(sr.owner),
		})
		return false
	}
	if epoch > sr.epoch || sr.owner != from || sr.own != nil {
		n.adoptOwner(p, sr, epoch, from)
	}
	sr.lastOwnerHeard = n.tr.now(p)
	return true
}

// onAppend takes a replicated suffix into the log — never into the store —
// copying each appended entry's ops into the shard's arena (the frame's are
// recycled once handled).
// Entries are checked one by one from the matched prefix up: one already
// held extends the match, one held under another epoch is a deposed
// owner's and makes way, with everything above it, for the owner's, and
// the first past match+1 ends the frame (a chunk was lost; the owner
// restreams from the ack).
func (n *Node) onAppend(p *sched.Proc, m *message) {
	sr := n.shards[m.rep.Shard]
	if !n.heardOwner(p, sr, NodeID(m.rep.From), m.rep.Epoch) {
		return
	}
	for _, e := range m.rep.Entries {
		if e.Seq > sr.match+1 {
			break
		}
		switch ex := sr.entryAt(e.Seq); {
		case ex == nil && e.Seq <= sr.base:
			continue // below the log floor: committed everywhere
		case ex == nil:
			e.Ops = sr.arena.copyOps(e.Ops)
			sr.appendLocal(e)
		case ex.Epoch != e.Epoch:
			if e.Seq <= sr.committed {
				// A committed entry is in every elected owner's log, so only
				// an owner that committed without a quorum leads here. Keep it.
				if !sr.refused {
					sr.refused = true
					n.cfg.Logf("cluster: node %d shard %d: refusing to replace committed entry %d (epoch %d) with node %d's of epoch %d",
						n.cfg.ID, sr.shard, e.Seq, ex.Epoch, m.rep.From, e.Epoch)
				}
				return
			}
			// Cap the kept prefix so the append copies: frames in flight may
			// still share the old array.
			keep := e.Seq - sr.base - 1
			sr.entries = sr.entries[:keep:keep]
			e.Ops = sr.arena.copyOps(e.Ops)
			sr.appendLocal(e)
		}
		sr.match = max(sr.match, e.Seq)
	}
	n.followCommit(p, sr, m.rep.Frontier, m.rep.Seq)
}

// followCommit is the follower's answer to every owner frame: commit what
// the owner has, as far as the matched prefix reaches, apply it, cut the
// log where the owner cut its own (never past what is applied here), and
// owe the owner an ack. The cumulative ack piggybacks on the next frame
// toward the owner (flushAcks guarantees one this loop iteration), folding
// the whole handled burst into one ack instead of one per frame.
func (n *Node) followCommit(p *sched.Proc, sr *shardRep, commit, floor uint64) {
	sr.committed = max(sr.committed, min(commit, sr.match))
	n.applyCommitted(p, sr)
	sr.truncate(min(floor, sr.applied))
	n.syncView(sr)
	sr.ackOwed = true
}

// adoptOwner accepts a (new) owner for the shard. A deposed owner drops its
// owner state and a candidate its candidacy.
func (n *Node) adoptOwner(p *sched.Proc, sr *shardRep, epoch uint64, w NodeID) {
	sr.own, sr.cand = nil, nil
	if epoch > sr.epoch {
		sr.match = sr.committed
	}
	sr.epoch = epoch
	sr.owner = w
	sr.lastOwnerHeard = n.tr.now(p)
	n.fe.owners[sr.shard] = w
	n.syncView(sr)
}

// onStale handles the fencing message: it tells a deposed owner (or stale
// candidate) the current epoch and owner.
func (n *Node) onStale(p *sched.Proc, m *message) {
	sr := n.shards[m.rep.Shard]
	// A peer that granted this node's still-open candidacy names this node.
	if w := NodeID(m.rep.Peer); int(w) < n.cfg.Nodes && w != n.cfg.ID && m.rep.Epoch > sr.epoch {
		n.adoptOwner(p, sr, m.rep.Epoch, w)
	}
}

// takeAcks appends the piggybacked follower acks owed to node to onto dst,
// until dst holds wire.MaxRepAcks, clearing their owed flags. Every
// outbound replication frame calls this through sendRep, so an owed ack
// rides whatever traffic goes the owner's way first.
func (n *Node) takeAcks(dst []wire.RepAck, to NodeID) []wire.RepAck {
	for _, sr := range n.shards {
		if len(dst) == wire.MaxRepAcks {
			break
		}
		if !sr.ackOwed || sr.owner != to {
			continue
		}
		sr.ackOwed = false
		dst = append(dst, wire.RepAck{
			Kind: wire.AckAppended, Shard: uint16(sr.shard), Epoch: sr.epoch,
			Frontier: sr.match, Last: sr.committed,
		})
	}
	return dst
}

// flushAcks sends a heartbeat to each owner still owed acks after the
// iteration's own traffic had its chance to carry them. The
// sendRep inside collects every owed shard for that owner at once, so
// this is one frame per owner per loop iteration (more only past the
// per-frame ack cap).
func (n *Node) flushAcks(p *sched.Proc) {
	if n.stopping {
		return
	}
	for _, sr := range n.shards {
		if sr.ackOwed {
			n.sendRep(p, sr.owner, wire.OpcodeRepHeartbeat, wire.Rep{})
		}
	}
}
