package cluster

import (
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wire"
)

// maxChunkEntries bounds the entry count in one RepAppend frame (the
// byte budget below is the binding limit for large entries).
const maxChunkEntries = 64

// Byte budgets keeping every frame this package emits encodable
// (≤ wire.MaxPayload), derived from wire.MaxRepData so the chain of
// guarantees composes: a route's ops fit a RepRoute frame AND a log
// entry built from that route alone (maxRouteBytes leaves room for the
// per-entry overhead), an entry fits a RepAppend frame, and RepDone
// results are chunked against the same budget. Without these bounds an
// oversized frame would fail AppendRepFrame with ErrBadFrame and be
// retried identically forever — wedging replication or a client route.
const (
	entryOverheadBytes = 18 // wire.EncodedEntrySize(wire.RepEntry{})
	maxEntryBytes      = wire.MaxRepData
	maxChunkBytes      = wire.MaxRepData
	maxDoneBytes       = wire.MaxRepData
	maxRouteBytes      = maxEntryBytes - entryOverheadBytes
)

// ownerState is a shard owner's replication pipeline. A replica holds one
// exactly while it owns the shard: election or construction builds it,
// deposition drops it — and with it the unanswered in-flight routes, whose
// front ends retransmit to the new owner, where the dedup table makes the
// retry idempotent. The per-node slices are indexed by NodeID.
type ownerState struct {
	nextSeq  uint64
	pend     fifo[pendRoute]
	pendSet  map[uint64]struct{}
	inflight window
	acked    []uint64
	// ackedCommit is what each follower reports committed; the owner's log
	// floor never passes a live follower's (see checkCommit).
	ackedCommit []uint64
	// sentTo is the highest seq streamed to each follower (≥ acked while
	// frames are in flight): appends push only the new suffix instead of
	// re-sending the whole unacked window, and retransmission resets it
	// to acked so a lost frame is recovered from the lowest unacked seq.
	sentTo   []uint64
	lastRetx int64
}

// pendRoute is one client route queued (or in flight) at a shard owner.
type pendRoute struct {
	from  NodeID
	reqid uint64
	ops   []service.Op
	bytes int   // encoded size of ops, toward maxEntryBytes
	at    int64 // arrival time; bounds the batch window wait
}

// inflightEntry is one unanswered entry in the owner's pipelined window,
// carrying the client routes applyCommitted answers once the entry has
// committed and been applied. The window is ordered by seq and commits
// strictly in prefix order — cumulative acks make committing seq c commit
// everything ≤ c.
type inflightEntry struct {
	seq    uint64
	routes []pendRoute
}

// window is the owner's pipelined window of unanswered entries, oldest
// first: a ring of MaxInflightEntries slots, so an entry's routes list
// reuses the array of the entry that held its slot before.
type window struct {
	slots   []inflightEntry
	head, n int
}

// next returns the slot after the window's tail with its routes emptied,
// for pump to fill before push seals it. The window must not be full.
func (w *window) next() *inflightEntry {
	e := &w.slots[(w.head+w.n)%len(w.slots)]
	e.routes = e.routes[:0]
	return e
}

// push seals the slot after the tail as the entry seq, with the routes
// pump put there (none for a new owner's barrier).
func (w *window) push(seq uint64) {
	w.slots[(w.head+w.n)%len(w.slots)].seq = seq
	w.n++
}

// front returns the oldest unanswered entry, nil when there is none.
func (w *window) front() *inflightEntry {
	if w.n == 0 {
		return nil
	}
	return &w.slots[w.head]
}

// pop drops the oldest entry, keeping its routes array for the slot's next
// entry.
func (w *window) pop() {
	e := &w.slots[w.head]
	clear(e.routes)
	e.routes = e.routes[:0]
	w.head = (w.head + 1) % len(w.slots)
	w.n--
}

// newOwnerState is the state of an owner whose next log entry is nextSeq.
func (n *Node) newOwnerState(nextSeq uint64, now int64) *ownerState {
	return &ownerState{
		nextSeq: nextSeq, pendSet: map[uint64]struct{}{}, lastRetx: now,
		inflight:    window{slots: make([]inflightEntry, n.cfg.MaxInflightEntries)},
		acked:       make([]uint64, n.cfg.Nodes),
		ackedCommit: make([]uint64, n.cfg.Nodes),
		sentTo:      make([]uint64, n.cfg.Nodes),
	}
}

// sendFrom is the seq after which follower f still needs entries: the
// higher of what it acknowledged and what is already streaming to it.
func (o *ownerState) sendFrom(f NodeID) uint64 { return max(o.acked[f], o.sentTo[f]) }

// ownerTick is the owner's timer pass: cut what the batch window held
// back, and retransmit to followers still missing part of the log.
func (n *Node) ownerTick(p *sched.Proc, sr *shardRep, now int64) {
	o := sr.own
	n.pump(p, sr)
	if now-o.lastRetx < n.cfg.retransmitEvery {
		return
	}
	o.lastRetx = now
	for _, f := range n.cfg.StoreNodes {
		if f == n.cfg.ID || o.acked[f] >= sr.frontier {
			continue // fully acked: the heartbeat keepalive suffices
		}
		// Retransmit from the lowest unacked seq: whatever was streamed
		// since the last ack may have been lost.
		o.sentTo[f] = o.acked[f]
		n.sendSuffix(p, sr, f)
	}
}

// onRoute queues a client route at the owner, with a copy of its ops in
// the shard's arena (the frame's are recycled once handled), or redirects
// the front end to where it believes the owner is.
func (n *Node) onRoute(p *sched.Proc, m *message) {
	sr := n.shards[m.rep.Shard]
	from := NodeID(m.rep.From)
	o := sr.own
	if o == nil {
		n.sendRep(p, from, wire.OpcodeRepRedirect, wire.Rep{
			Shard: m.rep.Shard, ReqID: m.rep.ReqID, Peer: uint16(sr.owner),
		})
		return
	}
	if _, dup := o.pendSet[m.rep.ReqID]; dup {
		return // retransmission of a queued or in-flight route
	}
	bytes := 0
	for _, op := range m.rep.Ops {
		bytes += wire.EncodedOpSize(op)
	}
	if bytes > maxRouteBytes {
		// Our own front ends split by byte size, so only a foreign sender
		// can produce this; queuing it would build an unencodable log entry
		// and wedge the shard's replication stream. Drop just this route.
		n.cfg.Logf("cluster: node %d shard %d: dropping oversized route from node %d (%d encoded bytes)",
			n.cfg.ID, sr.shard, from, bytes)
		return
	}
	o.pendSet[m.rep.ReqID] = struct{}{}
	o.pend.push(pendRoute{
		from: from, reqid: m.rep.ReqID, ops: sr.arena.copyOps(m.rep.Ops), bytes: bytes, at: n.tr.now(p),
	})
	n.pump(p, sr)
}

// pump drives the owner's replication pipeline: while the pipelined
// window has room and routes are pending, batch routes into the next log
// entry and stream it to the followers. Up to MaxInflightEntries entries
// are outstanding per shard; commits stay strictly in order (checkCommit
// answers prefixes). With a BatchWindow, a non-full batch waits out the
// window before cutting — tick re-pumps, so the extra wait is bounded by
// BatchWindow + tickEvery.
func (n *Node) pump(p *sched.Proc, sr *shardRep) {
	o := sr.own
	for o.inflight.n < n.cfg.MaxInflightEntries && o.pend.len() > 0 && !n.stopping {
		if n.cfg.BatchWindow > 0 {
			total := 0
			for i := 0; i < o.pend.len(); i++ {
				total += len(o.pend.at(i).ops)
			}
			if total < n.maxEntryOps && n.tr.now(p)-o.pend.at(0).at < n.cfg.BatchWindow {
				return // let the batch fill; the oldest route bounds the wait
			}
		}
		e := o.inflight.next()
		total, bytes := 0, entryOverheadBytes
		for o.pend.len() > 0 {
			r := o.pend.at(0)
			if len(e.routes) > 0 && (total+len(r.ops) > n.maxEntryOps || bytes+r.bytes > maxEntryBytes) {
				break
			}
			total += len(r.ops)
			bytes += r.bytes
			e.routes = append(e.routes, o.pend.pop())
			if total >= n.maxEntryOps {
				break
			}
		}
		// A one-route entry's ops are the route's own copy; a longer batch
		// gets fresh arena slots.
		ops := e.routes[0].ops
		if len(e.routes) > 1 {
			ops = sr.arena.slots(total)[:0]
			for _, r := range e.routes {
				ops = append(ops, r.ops...)
			}
		}
		n.appendEntry(p, sr, wire.RepEntry{Seq: o.nextSeq, Epoch: sr.epoch, Ops: ops})
	}
}

// appendEntry installs the owner's next log entry, sealing the window's next
// slot over it, and streams the new suffix to followers that aren't already
// being streamed it.
func (n *Node) appendEntry(p *sched.Proc, sr *shardRep, e wire.RepEntry) {
	o := sr.own
	sr.appendLocal(e)
	o.nextSeq = e.Seq + 1
	sr.match = sr.frontier
	o.acked[n.cfg.ID] = sr.frontier
	o.inflight.push(e.Seq)
	for _, f := range n.cfg.StoreNodes {
		if f != n.cfg.ID && o.sendFrom(f) < sr.frontier {
			n.sendSuffix(p, sr, f)
		}
	}
	n.checkCommit(p, sr) // single-replica clusters commit immediately
}

// sendSuffix sends follower f its next missing log chunk, starting after
// what it acked or is already being streamed (or an empty append as a
// frontier probe when the follower is behind the truncation point).
func (n *Node) sendSuffix(p *sched.Proc, sr *shardRep, f NodeID) {
	af := sr.own.sendFrom(f)
	rep := wire.Rep{Shard: uint16(sr.shard), Epoch: sr.epoch, Frontier: sr.committed, Seq: sr.base}
	if af < sr.frontier && af >= sr.base {
		// Chunk by encoded byte size as well as entry count: every entry
		// fits alone (pump bounds entries by maxEntryBytes ≤ maxChunkBytes),
		// so the chunk always carries at least one entry and a long suffix
		// streams across acks without ever building an unencodable frame.
		avail := sr.entriesFrom(af+1, maxChunkEntries)
		bytes, cnt := 0, 0
		for _, e := range avail {
			sz := wire.EncodedEntrySize(e)
			if cnt > 0 && bytes+sz > maxChunkBytes {
				break
			}
			bytes += sz
			cnt++
		}
		rep.Entries = avail[:cnt]
		sr.own.sentTo[f] = avail[cnt-1].Seq
		n.cEntriesSent.Add(int64(cnt))
	}
	// af < base: the follower is behind the truncation point and cannot be
	// caught up from the retained log; the empty append still probes its
	// real frontier in case our acked view is just stale.
	n.sendRep(p, f, wire.OpcodeRepAppend, rep)
}

// onAppendedAck advances a follower's acknowledged frontier, commits what
// a quorum now holds, and pushes the next chunk to a follower with more
// suffix outstanding than streamed.
func (n *Node) onAppendedAck(p *sched.Proc, from NodeID, a *wire.RepAck) {
	sr := n.shards[a.Shard]
	o := sr.own
	if o == nil || a.Epoch != sr.epoch {
		return
	}
	af := a.Frontier
	if n.bug == bugAckFullWindow {
		af = sr.frontier
	}
	if af > sr.frontier {
		return // no follower holds more of this epoch's log than its owner
	}
	o.acked[from] = max(o.acked[from], af)
	o.ackedCommit[from] = max(o.ackedCommit[from], a.Last)
	n.checkCommit(p, sr)
	if o.sendFrom(from) < sr.frontier {
		n.sendSuffix(p, sr, from)
	}
}

// checkCommit advances the committed frontier to the highest seq a quorum
// has acknowledged — but only through entries of the owner's own epoch
// (the Raft §5.4.2 rule; the barrier entry appended at election makes this
// live; acks are cumulative, so committing seq c commits the prefix
// beneath it) — then applies and answers what the commit covers, in log
// order, and pumps the freed window slots.
func (n *Node) checkCommit(p *sched.Proc, sr *shardRep) {
	o := sr.own
	var c uint64 // the quorum-th highest ack: the most a quorum holds
	for _, f := range n.cfg.StoreNodes {
		held := 0
		for _, g := range n.cfg.StoreNodes {
			if o.acked[g] >= o.acked[f] {
				held++
			}
		}
		if held >= n.quorum {
			c = max(c, o.acked[f])
		}
	}
	if c > sr.committed {
		if ex := sr.entryAt(c); ex != nil && ex.Epoch == sr.epoch {
			sr.committed = c
			n.syncView(sr)
		}
	}
	was := sr.applied
	n.applyCommitted(p, sr)
	if sr.applied == was {
		return
	}
	// The log floor passes only what this replica has applied and every
	// live follower has committed: whichever of them wins the next election
	// still holds all that any other is missing. (A replica silent past
	// ownerTimeout is not waited for and may fall behind the floor for good.)
	now := n.tr.now(p)
	floor := sr.applied
	for _, f := range n.cfg.StoreNodes {
		if f != n.cfg.ID && now-n.lastHeard[f] < n.cfg.ownerTimeout {
			floor = min(floor, o.ackedCommit[f])
		}
	}
	sr.truncate(floor)
	n.pump(p, sr)
}

// answer sends the routes batched into entry seq their results once it
// has applied: it heads the window unless a previous owner appended it, in
// which case its clients retransmit.
func (n *Node) answer(p *sched.Proc, sr *shardRep, seq uint64, results []service.Result) {
	o := sr.own
	e := o.inflight.front()
	if e == nil || e.seq != seq {
		return
	}
	for _, r := range e.routes {
		delete(o.pendSet, r.reqid)
		n.sendDone(p, sr.shard, r.from, r.reqid, results[:len(r.ops)])
		results = results[len(r.ops):]
	}
	o.inflight.pop()
}

// sendDone answers one route, chunking the results so every frame stays
// encodable: a route of small get ops can legally return far more result
// bytes than it carried (values up to MaxStr each), so the answer — not
// just the route — must be byte-bounded. Seq carries the chunk's first
// result index, Frontier the route's total count; onDone reassembles.
// Lost chunks are recovered by the front end's route retransmission (the
// retry re-applies idempotently and the full answer is resent).
func (n *Node) sendDone(p *sched.Proc, shard int, to NodeID, reqid uint64, results []service.Result) {
	total := len(results)
	for off := 0; ; {
		bytes, cnt := 0, 0
		for off+cnt < total && cnt < wire.MaxBatchOps {
			sz := wire.EncodedResultSize(results[off+cnt])
			if cnt > 0 && bytes+sz > maxDoneBytes {
				break
			}
			bytes += sz
			cnt++
		}
		n.sendRep(p, to, wire.OpcodeRepDone, wire.Rep{
			Shard: uint16(shard), ReqID: reqid, Seq: uint64(off), Frontier: uint64(total),
			Results: results[off : off+cnt],
		})
		if off += cnt; off >= total {
			return // an empty answer is one empty chunk
		}
	}
}
