package cluster

import (
	"repro/internal/sched"
	"repro/internal/wire"
)

// candidacy is a replica's open election. It exists only while the node
// campaigns: winning, adopting another owner, or granting a rival's vote
// ends it, and a retry replaces it.
type candidacy struct {
	epoch   uint64
	started int64
	votes   map[NodeID]bool
}

// onPeerDown ages a peer after the free transport lost its connection:
// node-level liveness expires immediately, and any shard the peer owned
// has its owner timeout expired so the election stagger starts now.
func (n *Node) onPeerDown(p *sched.Proc, id NodeID) {
	if int(id) >= n.cfg.Nodes || id == n.cfg.ID {
		return
	}
	now := n.tr.now(p)
	n.lastHeard[id] = now - n.cfg.ownerTimeout - 1
	for _, sr := range n.shards {
		if sr.owner == id && sr.own == nil && sr.lastOwnerHeard > now-n.cfg.ownerTimeout {
			sr.lastOwnerHeard = now - n.cfg.ownerTimeout
		}
	}
}

// rank returns this node's position among the shard's live preferred
// successors (0 = preferred): candidates stagger their elections by rank
// so the best-placed live replica usually runs unopposed.
func (n *Node) rank(sr *shardRep, now int64) int64 {
	r := int64(0)
	for _, f := range n.cfg.StoreNodes {
		if f == n.cfg.ID {
			break
		}
		if f == sr.owner {
			continue // the silent owner is who we're replacing
		}
		if now-n.lastHeard[f] < n.cfg.ownerTimeout {
			r++
		}
	}
	return r
}

// maybeElect starts (or retries) an election once the owner has been
// silent past ownerTimeout plus this node's stagger.
func (n *Node) maybeElect(p *sched.Proc, sr *shardRep, now int64) {
	elapsed := now - sr.lastOwnerHeard
	if elapsed < n.cfg.ownerTimeout+n.rank(sr, now)*n.cfg.electionStagger {
		return
	}
	if c := sr.cand; c != nil && now-c.started < n.cfg.electionBackoff {
		return // election in progress; give it time before escalating
	}
	n.startElection(p, sr, now, 0)
}

// startElection opens a candidacy at an epoch above everything this node
// has seen or voted (and at least atLeast — the escalation path uses it to
// jump past a stalled rival).
func (n *Node) startElection(p *sched.Proc, sr *shardRep, now int64, atLeast uint64) {
	e := max(sr.epoch+1, sr.votedEpoch+1, atLeast)
	sr.cand = &candidacy{epoch: e, started: now, votes: map[NodeID]bool{n.cfg.ID: true}}
	sr.votedEpoch = e // vote for self
	n.cElections.Inc()
	n.cfg.Logf("cluster: node %d shard %d: election epoch %d (frontier %d)",
		n.cfg.ID, sr.shard, e, sr.frontier)
	if n.quorum <= 1 {
		n.becomeOwner(p, sr)
		return
	}
	for _, f := range n.cfg.StoreNodes {
		if f != n.cfg.ID {
			n.sendRep(p, f, wire.OpcodeRepVote, wire.Rep{
				Shard: uint16(sr.shard), Epoch: e, Frontier: sr.frontier, Seq: sr.lastEpoch,
			})
		}
	}
}

// onVote grants (once per epoch) if the candidate's log is at least as
// up to date — the Raft vote rule, compared as (last-entry epoch,
// frontier). A grant is a promise: the voter adopts the candidate's epoch,
// so the fence in heardOwner refuses every later frame of the owner it
// voted out and nothing that owner still commits can count this replica.
func (n *Node) onVote(p *sched.Proc, m *message) {
	sr := n.shards[m.rep.Shard]
	e := m.rep.Epoch
	if e <= sr.epoch || e <= sr.votedEpoch {
		return
	}
	candLast, candFrontier := m.rep.Seq, m.rep.Frontier
	if candLast < sr.lastEpoch || (candLast == sr.lastEpoch && candFrontier < sr.frontier) {
		// The candidate's log is behind ours: it must not win. If our own
		// owner is also silent, escalate — run for the epoch above the
		// rival's, which it must grant (our log is ahead). Without this, a
		// behind candidate that fires its timer first stays one self-voted
		// epoch ahead forever and the fixed backoffs livelock the election.
		now := n.tr.now(p)
		if sr.own == nil && now-sr.lastOwnerHeard >= n.cfg.ownerTimeout {
			n.startElection(p, sr, now, e+1)
		}
		return
	}
	sr.votedEpoch = e
	if n.bug == bugGrantNoPromise {
		sr.cand, sr.lastOwnerHeard = nil, n.tr.now(p)
	} else {
		// Also ends our own candidacy and restarts the owner timeout.
		n.adoptOwner(p, sr, e, NodeID(m.rep.From))
	}
	n.sendRep(p, NodeID(m.rep.From), wire.OpcodeRepVoteOK, wire.Rep{
		Shard: m.rep.Shard, Epoch: e, Frontier: sr.frontier, Seq: sr.lastEpoch,
	})
}

// onVoteOK collects grants; a majority of the full replica set wins.
func (n *Node) onVoteOK(p *sched.Proc, m *message) {
	sr := n.shards[m.rep.Shard]
	c := sr.cand
	if c == nil || m.rep.Epoch != c.epoch {
		return
	}
	c.votes[NodeID(m.rep.From)] = true
	if len(c.votes) >= n.quorum {
		n.becomeOwner(p, sr)
	}
}

// becomeOwner completes a won election: adopt the new epoch, announce
// ownership to every node, and append the barrier entry that (once a
// quorum acks it) commits the whole inherited log under the new epoch.
func (n *Node) becomeOwner(p *sched.Proc, sr *shardRep) {
	sr.epoch = sr.cand.epoch
	sr.cand = nil
	sr.owner = n.cfg.ID
	sr.own = n.newOwnerState(sr.frontier+1, n.tr.now(p))
	sr.ackOwed = false
	n.fe.owners[sr.shard] = n.cfg.ID
	n.cFailovers.Inc()
	n.cfg.Logf("cluster: node %d shard %d: OWNER at epoch %d (frontier %d)",
		n.cfg.ID, sr.shard, sr.epoch, sr.frontier)
	for i := 0; i < n.cfg.Nodes; i++ {
		if NodeID(i) != n.cfg.ID {
			n.sendRep(p, NodeID(i), wire.OpcodeRepOwner, wire.Rep{
				Shard: uint16(sr.shard), Epoch: sr.epoch, Frontier: sr.frontier,
				Seq: sr.lastEpoch, Peer: uint16(n.cfg.ID),
			})
		}
	}
	// The barrier: an empty entry in the new epoch. Its commit commits
	// everything beneath it (checkCommit only counts own-epoch entries).
	n.appendEntry(p, sr, wire.RepEntry{Seq: sr.own.nextSeq, Epoch: sr.epoch})
	n.syncView(sr)
}

// onOwner records an election result: a store node adopts the winner, a
// front end re-aims its pending routes.
func (n *Node) onOwner(p *sched.Proc, m *message) {
	s := int(m.rep.Shard)
	w := NodeID(m.rep.Peer)
	if int(w) >= n.cfg.Nodes {
		return
	}
	e := m.rep.Epoch
	if n.cfg.Store {
		sr := n.shards[s]
		if w != n.cfg.ID && (e > sr.epoch || (e == sr.epoch && sr.own == nil && sr.owner != w)) {
			n.adoptOwner(p, sr, e, w)
		}
	}
	if n.cfg.Frontend {
		n.fe.owners[s] = w
		now := n.tr.now(p)
		for _, id := range n.fe.routeIDs(s) {
			r := n.fe.routes[id]
			r.sentAt = now
			n.sendRoute(p, id, r)
		}
	}
}
