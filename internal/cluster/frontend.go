package cluster

import (
	"errors"
	"slices"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wire"
)

// frontEnd is the router's state: the client routes awaiting their owners'
// answers and the believed owner of every shard. All fields are
// event-loop-owned.
type frontEnd struct {
	routes    map[uint64]*route
	owners    []NodeID // believed owner per shard
	nextReq   uint64
	nextOpSeq uint64
	due       []uint64 // resendDue's reused timed-out-route id buffer
	// vals holds the result values onDone hands clients: copies, since an
	// answer's frame is recycled once handled, in write-once chunks that
	// no one overwrites while a client holds a value.
	vals opArena
	// startCall's scratch: each op's shard, and per shard its op count,
	// its next position in the call's route storage, and its still-filling
	// route (index+1 into the call's routes; 0 for none).
	shardOf []int
	count   []int
	pos     []int
	open    []int
}

func newFrontEnd(shards int) frontEnd {
	return frontEnd{
		routes: map[uint64]*route{}, owners: make([]NodeID, shards),
		count: make([]int, shards), pos: make([]int, shards), open: make([]int, shards),
	}
}

// route is one shard's slice of a client call, tracked by the front end
// until the owning node answers it with RepDone. Large calls split into
// several routes per shard so each route's ops stay under maxRouteBytes;
// answers may arrive as several result chunks (got/recvd reassemble).
type route struct {
	call   *clientCall
	shard  int
	ops    []service.Op
	idxs   []int // positions in call.ops/call.results
	bytes  int   // encoded size of ops
	sentAt int64
	got    []bool // results received, by position in ops
	recvd  int
}

// startCall splits a client call per shard and routes each slice to its
// owner. The routes live in the call (clientCall.routes, rops, ridx): a
// first pass counts each shard's ops, so every shard gets one contiguous
// run of the call's storage, sized up front, and its routes are windows of
// that run.
func (n *Node) startCall(p *sched.Proc, cc *clientCall) {
	if !n.cfg.Frontend || n.stopping {
		cc.finish(service.ErrClosed)
		return
	}
	if len(cc.ops) == 0 {
		cc.finish(nil)
		return
	}
	fe := &n.fe
	fe.shardOf = fe.shardOf[:0]
	for _, op := range cc.ops {
		s := service.ShardIndex(op.Key, n.cfg.Shards)
		fe.shardOf = append(fe.shardOf, s)
		fe.count[s]++
	}
	at := 0
	for s, c := range fe.count {
		fe.pos[s], at = at, at+c
	}
	cc.rops = resize(cc.rops, len(cc.ops))
	cc.ridx = resize(cc.ridx, len(cc.ops))
	// Per shard, a call may split into several routes: each route's ops are
	// bounded by encoded byte size (maxRouteBytes) and count (MaxBatchOps),
	// so the route frame, the log entry batching it, and the append frame
	// replicating that entry are all encodable — a client's RPW1 batch frame
	// carries up to wire.MaxBatchOps ops whose payloads together can exceed
	// maxRouteBytes, and it must never produce a frame the wire layer
	// refuses, because refused frames retry identically forever.
	for i, op := range cc.ops {
		if op.ID == 0 {
			// Stamp an idempotency id so a failover retransmission can never
			// apply the op twice (high 16 bits: node, below: a local counter).
			fe.nextOpSeq++
			op.ID = (uint64(n.cfg.ID)+1)<<48 | fe.nextOpSeq
		}
		s := fe.shardOf[i]
		sz := wire.EncodedOpSize(op)
		k := fe.open[s] - 1
		if k < 0 || len(cc.routes[k].ops) >= wire.MaxBatchOps || cc.routes[k].bytes+sz > maxRouteBytes {
			at := fe.pos[s]
			cc.routes = append(cc.routes, route{call: cc, shard: s, ops: cc.rops[at:at], idxs: cc.ridx[at:at]})
			k = len(cc.routes) - 1
			fe.open[s] = k + 1
		}
		r := &cc.routes[k]
		cc.rops[fe.pos[s]], cc.ridx[fe.pos[s]] = op, i
		fe.pos[s]++
		r.ops, r.idxs = r.ops[:len(r.ops)+1], r.idxs[:len(r.idxs)+1]
		r.bytes += sz
	}
	clear(fe.count)
	clear(fe.open)
	now := n.tr.now(p)
	for k := range cc.routes {
		r := &cc.routes[k]
		cc.remaining++
		fe.nextReq++
		reqid := (uint64(n.cfg.ID)+1)<<48 | fe.nextReq
		fe.routes[reqid] = r
		r.sentAt = now
		n.sendRoute(p, reqid, r)
	}
}

func (n *Node) sendRoute(p *sched.Proc, reqid uint64, r *route) {
	n.sendRep(p, n.fe.owners[r.shard], wire.OpcodeRepRoute, wire.Rep{
		Shard: uint16(r.shard), ReqID: reqid, Ops: r.ops,
	})
}

// resendDue resends the routes unanswered for routeTimeout (and expires
// the owner hint of a silent owner). It scans for timed-out routes only,
// into a reused buffer: the common tick (nothing due) allocates nothing,
// and the sort keeps resends deterministic despite map iteration order.
func (n *Node) resendDue(p *sched.Proc, now int64) {
	fe := &n.fe
	due := fe.due[:0]
	for id, r := range fe.routes {
		if now-r.sentAt >= n.cfg.routeTimeout {
			due = append(due, id)
		}
	}
	slices.Sort(due)
	for _, id := range due {
		r := fe.routes[id]
		r.sentAt = now
		if o := fe.owners[r.shard]; now-n.lastHeard[o] >= n.cfg.ownerTimeout {
			// The hint expires: an owner silent this long is dead or cut
			// off, and its successor's one owner broadcast may have been
			// lost. The next store node in preference order redirects to
			// the owner it knows, or owns the shard by now.
			pref := n.cfg.pref(r.shard)
			fe.owners[r.shard] = pref[(slices.Index(pref, o)+1)%len(pref)]
		}
		n.cRouteRetries.Inc()
		n.sendRoute(p, id, r)
	}
	fe.due = due[:0]
}

// routeIDs returns the ids of shard s's pending routes (every shard's when
// s < 0), ascending: resends and failures stay deterministic despite map
// iteration order.
func (fe *frontEnd) routeIDs(s int) []uint64 {
	var ids []uint64
	for id, r := range fe.routes {
		if s < 0 || r.shard == s {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// failRoutes fails every unanswered client call at shutdown.
func (n *Node) failRoutes() {
	for _, id := range n.fe.routeIDs(-1) {
		r := n.fe.routes[id]
		delete(n.fe.routes, id)
		if !r.call.answered {
			r.call.finish(service.ErrClosed)
		}
	}
}

// onDone merges one answer chunk into its route, copying the result values
// into fe.vals, and completes the route once every result has arrived. Seq
// carries the chunk's first result index and Frontier the route's total
// result count (docs/PROTOCOL.md §5.2); the common small answer is a single
// chunk covering everything, which needs no got bitmap. Chunks are
// idempotent by index, so duplicated frames and the full resend after a
// route retransmission merge cleanly.
func (n *Node) onDone(_ *sched.Proc, m *message) {
	r, ok := n.fe.routes[m.rep.ReqID]
	if !ok {
		return // duplicate answer
	}
	cc := r.call
	if cc.answered {
		delete(n.fe.routes, m.rep.ReqID)
		return
	}
	total, off := int(m.rep.Frontier), int(m.rep.Seq)
	if total != len(r.ops) || off < 0 || off+len(m.rep.Results) > total {
		delete(n.fe.routes, m.rep.ReqID)
		cc.finish(errors.New("cluster: misaligned route results"))
		return
	}
	if r.got == nil && off == 0 && len(m.rep.Results) == total {
		// The common answer: one chunk covers the route.
		for i, res := range m.rep.Results {
			res.Val = n.fe.vals.str(res.Val)
			cc.results[r.idxs[i]] = res
		}
		r.recvd = total
	} else {
		if r.got == nil {
			r.got = make([]bool, len(r.ops))
		}
		for i, res := range m.rep.Results {
			res.Val = n.fe.vals.str(res.Val)
			cc.results[r.idxs[off+i]] = res
			if !r.got[off+i] {
				r.got[off+i] = true
				r.recvd++
			}
		}
	}
	if r.recvd < len(r.ops) {
		return // more chunks outstanding
	}
	delete(n.fe.routes, m.rep.ReqID)
	cc.remaining--
	if cc.remaining == 0 {
		cc.finish(nil)
	}
}

// onRedirect re-aims a pending route at the owner the store node named.
func (n *Node) onRedirect(p *sched.Proc, m *message) {
	s := int(m.rep.Shard)
	w := NodeID(m.rep.Peer)
	if int(w) >= n.cfg.Nodes {
		return
	}
	n.fe.owners[s] = w
	if r, ok := n.fe.routes[m.rep.ReqID]; ok && !r.call.answered {
		n.cRedirects.Inc()
		r.sentAt = n.tr.now(p)
		n.sendRoute(p, m.rep.ReqID, r)
	}
}
