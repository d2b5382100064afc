package cluster

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wire"
)

// ShardStatus is one shard's view from one node, for health endpoints and
// tests.
type ShardStatus struct {
	Shard     int    `json:"shard"`
	Owner     NodeID `json:"owner"`
	Epoch     uint64 `json:"epoch"`
	IsOwner   bool   `json:"is_owner"`
	Frontier  uint64 `json:"frontier"`
	Committed uint64 `json:"committed"`
}

// Status is a point-in-time snapshot of one node's cluster state.
type Status struct {
	Node          NodeID        `json:"node"`
	Frontend      bool          `json:"frontend"`
	Store         bool          `json:"store"`
	Shards        []ShardStatus `json:"shards"`
	PendingRoutes int           `json:"pending_routes"`
	Failovers     int64         `json:"failovers"`
	Elections     int64         `json:"elections"`
	Redirects     int64         `json:"redirects"`
	RouteRetries  int64         `json:"route_retries"`
}

// OwnedShards counts the shards this node currently owns.
func (s Status) OwnedShards() int {
	n := 0
	for _, sh := range s.Shards {
		if sh.IsOwner {
			n++
		}
	}
	return n
}

// Node is one process of the cluster: the front end router (when
// cfg.Frontend), the per-shard replicas (when cfg.Store), and the single
// event loop that runs the whole replication protocol over the Transport
// seam. The same Node code runs under real TCP and under the simulated
// network — only the Transport differs.
type Node struct {
	cfg    Config
	tr     Transport
	stores []*service.Store // len cfg.Shards when cfg.Store, else nil
	quorum int

	// Event-loop-owned state.
	shards    []*shardRep // len cfg.Shards when cfg.Store, else nil
	fe        frontEnd
	lastHeard []int64
	lastBeat  int64
	stopping  bool

	// Metrics (atomic counters; safe to scrape off-loop).
	reg            *metrics.Registry
	cFailovers     *metrics.Counter
	cElections     *metrics.Counter
	cRedirects     *metrics.Counter
	cRouteRetries  *metrics.Counter
	cEntriesSent   *metrics.Counter
	cEntriesApp    *metrics.Counter
	cMsgSent       [16]*metrics.Counter
	cMsgRecv       [16]*metrics.Counter
	gOwned         *metrics.Gauge
	gPendingRoutes *metrics.Gauge
	drops          *dropCounters

	// maxEntryOps bounds the client ops batched into one log entry: 512 in
	// free mode, 8 in virtual mode (so scenario workloads span many entries).
	maxEntryOps int
	// bug is the protocol bug a canary fixture injected into this node;
	// bugNone everywhere else.
	bug injectedBug
	// rec, when non-nil, records per shard every entry the replica applies,
	// in log order — append-only, so joined with the log kept above applied
	// it is the replica's whole chain (Node.chain). The virtual scenarios and
	// the cross-runtime tests install it; production leaves it nil.
	rec [][]wire.RepEntry

	// sendRep's scratch: the frame it lends the transport, and the acks
	// section takeAcks fills. sendHeartbeats builds its commit list in beats.
	out   message
	acks  [wire.MaxRepAcks]wire.RepAck
	beats []wire.RepAck

	// Answered free-mode calls, ready for reuse (getCall, putCall).
	cmu   sync.Mutex
	calls []*clientCall

	// Off-loop snapshot for Status, refreshed by the loop.
	smu       sync.Mutex
	view      []ShardStatus
	closed    atomic.Bool
	loopEnded bool          // virtual CloseOn parks on this (token-serialized)
	loopDone  chan struct{} // free Close blocks on this
}

// injectedBug names a protocol bug the must-detect canary scenarios plant
// in a node, each read on the one production branch it corrupts.
type injectedBug uint8

const (
	bugNone injectedBug = iota
	// bugSkipApply: followers mark committed entries applied WITHOUT
	// applying them to the local store — stale reads after the follower
	// wins a failover (cluster:stale-canary).
	bugSkipApply
	// bugAckFullWindow: the owner treats ANY follower ack as acknowledging
	// its full pipelined window, so entries commit and answer clients
	// before a quorum holds them (cluster:batch-canary).
	bugAckFullWindow
	// bugGrantNoPromise: a voter grants WITHOUT adopting the candidate's
	// epoch, so it keeps acking the owner it just voted out
	// (cluster:vote-canary).
	bugGrantNoPromise
)

var opcodeNames = map[byte]string{
	wire.OpcodeRepHeartbeat: "heartbeat",
	wire.OpcodeRepRoute:     "route",
	wire.OpcodeRepDone:      "done",
	wire.OpcodeRepRedirect:  "redirect",
	wire.OpcodeRepAppend:    "append",
	wire.OpcodeRepStale:     "stale",
	wire.OpcodeRepVote:      "vote",
	wire.OpcodeRepVoteOK:    "voteok",
	wire.OpcodeRepOwner:     "owner",
}

// New builds a Node over a transport. stores must have cfg.Shards entries
// when cfg.Store is set (each a single-shard service.Store the node may
// drive exclusively) and is ignored otherwise. The caller then runs the
// event loop: go n.Run(nil) in free mode, run.Spawn(id, n.Run) in virtual
// mode.
func New(cfg Config, tr Transport, stores []*service.Store) *Node {
	_, virtual := tr.(*vEndpoint)
	cfg = cfg.withDefaults(virtual)
	n := &Node{
		cfg:         cfg,
		tr:          tr,
		quorum:      cfg.quorum(),
		fe:          newFrontEnd(cfg.Shards),
		lastHeard:   make([]int64, cfg.Nodes),
		view:        make([]ShardStatus, cfg.Shards),
		loopDone:    make(chan struct{}),
		reg:         metrics.NewRegistry(),
		maxEntryOps: 512,
	}
	if virtual {
		n.maxEntryOps = 8
	}
	if cfg.Store {
		n.stores = stores
		n.shards = make([]*shardRep, cfg.Shards)
	}
	n.cFailovers = n.reg.Counter("cluster_failovers_total", "elections won by this node", nil)
	n.cElections = n.reg.Counter("cluster_elections_total", "elections started by this node", nil)
	n.cRedirects = n.reg.Counter("cluster_redirects_total", "routes redirected to the current owner", nil)
	n.cRouteRetries = n.reg.Counter("cluster_route_retries_total", "client routes resent after RouteTimeout", nil)
	n.cEntriesSent = n.reg.Counter("cluster_entries_replicated_total", "log entries sent to followers", nil)
	n.cEntriesApp = n.reg.Counter("cluster_entries_applied_total", "replicated log entries applied locally", nil)
	n.gOwned = n.reg.Gauge("cluster_owned_shards", "shards this node currently owns", nil)
	n.gPendingRoutes = n.reg.Gauge("cluster_pending_routes", "client routes awaiting RepDone", nil)
	n.drops = newDropCounters(n.reg)
	switch t := tr.(type) {
	case *vEndpoint:
		t.drops = n.drops
	case *FreeTransport:
		t.setDrops(n.drops) // accept/dial goroutines already run, hence atomic
	}
	for op, name := range opcodeNames {
		n.cMsgSent[op] = n.reg.Counter("cluster_messages_sent_total", "replication messages sent by kind",
			metrics.Labels{{Name: "kind", Value: name}})
		n.cMsgRecv[op] = n.reg.Counter("cluster_messages_recv_total", "replication messages received by kind",
			metrics.Labels{{Name: "kind", Value: name}})
	}
	for s := 0; s < cfg.Shards; s++ {
		sr := &shardRep{shard: s, epoch: 1, owner: cfg.pref(s)[0]}
		if cfg.Store {
			if sr.owner == cfg.ID {
				sr.own = n.newOwnerState(1, 0)
			}
			n.shards[s] = sr
		}
		n.fe.owners[s] = sr.owner
		n.view[s] = sr.status()
	}
	return n
}

// Metrics returns the node's cluster metric registry (Prometheus families
// cluster_*; see docs/OPERATIONS.md).
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// StoreRegistries returns the per-shard replica stores' metric registries,
// indexed by shard (empty for a frontend-only node). Safe from any
// goroutine — the store set is fixed at construction. Cluster-mode
// /metrics merges these with Metrics() so the op/batch/latency families of
// single-process mode stay scrapable in a deployment.
func (n *Node) StoreRegistries() []*metrics.Registry {
	out := make([]*metrics.Registry, len(n.stores))
	for i, st := range n.stores {
		out[i] = st.Metrics()
	}
	return out
}

// Status snapshots the node's cluster state; safe from any goroutine.
func (n *Node) Status() Status {
	n.smu.Lock()
	shards := append([]ShardStatus(nil), n.view...)
	n.smu.Unlock()
	return Status{
		Node: n.cfg.ID, Frontend: n.cfg.Frontend, Store: n.cfg.Store,
		Shards: shards, PendingRoutes: int(n.gPendingRoutes.Value()),
		Failovers: n.cFailovers.Value(), Elections: n.cElections.Value(),
		Redirects: n.cRedirects.Value(), RouteRetries: n.cRouteRetries.Value(),
	}
}

// Stats implements wire.Backend: the merged view over the node's per-shard
// replica stores (see service.MergedStats). A frontend-only node reports
// an empty Stats.
func (n *Node) Stats() service.Stats {
	out := service.MergedStats(n.stores)
	out.Shards = n.cfg.Shards // the deployment's, also where no store is held
	return out
}

// ShardState exposes one shard's replica bookkeeping for checkers (store
// nodes only; free-mode tests must only call this after the loop has
// exited).
func (n *Node) ShardState(shard int) ShardStatus { return n.shards[shard].status() }

// syncView publishes a replica's status to Status readers and recounts the
// owned shards.
func (n *Node) syncView(sr *shardRep) {
	n.smu.Lock()
	n.view[sr.shard] = sr.status()
	n.smu.Unlock()
	var owned int64
	for _, s := range n.shards {
		if s.own != nil {
			owned++
		}
	}
	n.gOwned.Set(owned)
}

// ---------------------------------------------------------------------------
// Client surface.

// Do routes one op through the cluster (front end role required).
func (n *Node) Do(ctx context.Context, op service.Op) (service.Result, error) {
	cc := n.getCall()
	cc.one[0] = op
	cc.ops, cc.results = cc.one[:], cc.oneRes[:]
	if err := n.call(ctx, cc); err != nil {
		return service.Result{}, err
	}
	res := cc.oneRes[0]
	n.putCall(cc)
	return res, nil
}

// DoBatch routes a batch: ops are split per shard, routed to each shard's
// owner, and the index-aligned results assembled as the owners answer.
// It blocks until every split has been answered (failover included — the
// front end retransmits until a new owner emerges) or ctx is done.
func (n *Node) DoBatch(ctx context.Context, ops []service.Op) ([]service.Result, error) {
	cc := n.getCall()
	cc.ops, cc.results = ops, make([]service.Result, len(ops))
	if err := n.call(ctx, cc); err != nil {
		return nil, err
	}
	res := cc.results
	n.putCall(cc)
	return res, nil
}

// call injects a free-mode call into the loop and waits for its answer.
func (n *Node) call(ctx context.Context, cc *clientCall) error {
	if n.closed.Load() || !n.tr.inject(nil, &cc.msg) {
		return service.ErrClosed // closed, or lost the race with shutdown's inbox drain
	}
	select {
	case <-cc.done:
		return cc.err
	case <-ctx.Done():
		// The call stays routed; like a crashed client, its ops may still
		// commit (idempotently, under their stamped ids). The loop may still
		// answer it, so it is never reused.
		return service.ErrDeadline
	}
}

// getCall takes a free-mode call record, a recycled one when available.
func (n *Node) getCall() *clientCall {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	if k := len(n.calls); k > 0 {
		cc := n.calls[k-1]
		n.calls = n.calls[:k-1]
		return cc
	}
	cc := &clientCall{done: make(chan struct{}, 1)}
	cc.msg = message{kind: kindClient, call: cc}
	return cc
}

// maxKeptCallOps bounds the route storage a recycled call keeps: one
// oversized batch is left to the garbage collector.
const maxKeptCallOps = 4096

// putCall returns a call that succeeded for reuse. Its routes have all been
// answered and forgotten by the front end, and the caller holds nothing of
// it but values already copied out.
func (n *Node) putCall(cc *clientCall) {
	if cap(cc.rops) > maxKeptCallOps {
		return
	}
	clear(cc.rops)
	clear(cc.routes)
	*cc = clientCall{
		done: cc.done, msg: cc.msg,
		routes: cc.routes[:0], rops: cc.rops[:0], ridx: cc.ridx[:0],
	}
	n.cmu.Lock()
	n.calls = append(n.calls, cc)
	n.cmu.Unlock()
}

// DoBatchOn is DoBatch for a virtual-mode proc: it parks p until the call
// is answered.
func (n *Node) DoBatchOn(p *sched.Proc, ops []service.Op) ([]service.Result, error) {
	cc := &clientCall{ops: ops, results: make([]service.Result, len(ops))}
	cc.msg = message{kind: kindClient, call: cc}
	if n.closed.Load() || !n.tr.inject(p, &cc.msg) {
		return nil, service.ErrClosed // closed, or lost the race with shutdown's inbox drain
	}
	p.Park(func() bool { return cc.answered })
	return cc.results, cc.err
}

// Close shuts the free-mode node down: the loop drains, pending client
// calls fail with ErrClosed, the stores close, the transport tears down.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		<-n.loopDone
		return service.ErrClosed
	}
	n.tr.inject(nil, &message{kind: kindShutdown})
	<-n.loopDone
	return nil
}

// closeAsyncOn injects the shutdown message without waiting for the loop
// to exit — for scenario drivers shutting down a node whose loop may have
// been crashed by the schedule (waiting would park forever).
func (n *Node) closeAsyncOn(p *sched.Proc) {
	if !n.closed.Swap(true) {
		n.tr.inject(p, &message{kind: kindShutdown})
	}
}

// CloseOn is Close for a virtual-mode driver proc.
func (n *Node) CloseOn(p *sched.Proc) error {
	if n.closed.Swap(true) {
		return service.ErrClosed
	}
	n.tr.inject(p, &message{kind: kindShutdown})
	p.Park(func() bool { return n.loopEnded })
	return nil
}

// ---------------------------------------------------------------------------
// The event loop.

// Run is the node's event loop; it returns when the node is closed. In
// free mode call it on its own goroutine with p = nil; in virtual mode
// spawn it as a proc of the run.
func (n *Node) Run(p *sched.Proc) {
	now := n.tr.now(p)
	n.lastBeat = now
	for i := range n.lastHeard {
		n.lastHeard[i] = now
	}
	for _, sr := range n.shards {
		sr.lastOwnerHeard = now
	}
	for !n.stopping {
		m, ok := n.tr.recv(p, n.tr.now(p)+n.cfg.tickEvery)
		if ok {
			n.handle(p, m)
			n.tr.release(m)
			// Drain the rest of the burst before ticking: everything the
			// burst makes us send coalesces into one flush below, and the
			// acks it leaves owed fold into that same flush's frames.
			for i := 0; i < burstDrain && !n.stopping; i++ {
				if m, ok = n.tr.tryRecv(p); !ok {
					break
				}
				n.handle(p, m)
				n.tr.release(m)
			}
		}
		n.tick(p)
		// Ordering matters: tick's own traffic (heartbeats, suffixes) gets
		// first chance to carry owed acks, flushAcks sends heartbeats for
		// the leftovers, and the transport flush pushes the whole burst
		// out as one write per peer.
		n.flushAcks(p)
		n.tr.flush(p)
	}
	n.shutdown(p)
}

// burstDrain caps how many already-due messages one loop iteration
// handles before running timers, so a flooded inbox cannot starve ticks.
const burstDrain = 64

func (n *Node) shutdown(p *sched.Proc) {
	n.tr.flush(p) // push out anything the final iteration buffered
	n.closed.Store(true)
	// A client call can race the shutdown message into the inbox (its
	// closed check passed before Close stored the flag). Close the inbox to
	// further injects and fail whatever landed behind the shutdown message;
	// an inject arriving after the close returns false and the submitter
	// fails the call itself — either way nobody blocks forever.
	for _, m := range n.tr.drain(p) {
		if m.kind == kindClient && !m.call.answered {
			m.call.finish(service.ErrClosed)
		}
	}
	n.failRoutes()
	for _, st := range n.stores {
		if p != nil {
			st.CloseOn(p)
		} else {
			st.Close()
		}
	}
	n.tr.close()
	n.smu.Lock()
	n.loopEnded = true
	n.smu.Unlock()
	close(n.loopDone)
}

// handle dispatches one inbox message. The ack section and the store-side
// opcodes reach only a node that holds replicas.
func (n *Node) handle(p *sched.Proc, m *message) {
	if m.kind < 0x80 {
		if c := n.cMsgRecv[m.kind&0x0F]; c != nil && wire.IsRepOpcode(m.kind) {
			c.Inc()
		}
		from := int(m.rep.From)
		if from >= n.cfg.Nodes || int(m.rep.Shard) >= n.cfg.Shards {
			return // malformed or from an unknown deployment
		}
		n.lastHeard[from] = n.tr.now(p)
		if n.cfg.Store {
			n.handleReplica(p, m)
		}
	}
	switch m.kind {
	case kindClient:
		n.startCall(p, m.call)
	case kindShutdown:
		n.stopping = true
	case kindPeerDown:
		n.onPeerDown(p, NodeID(m.rep.Peer))
	case wire.OpcodeRepDone:
		n.onDone(p, m)
	case wire.OpcodeRepRedirect:
		n.onRedirect(p, m)
	case wire.OpcodeRepOwner:
		n.onOwner(p, m)
	}
}

// handleReplica dispatches a frame's acks section, then its store-side
// opcode. A heartbeat is nothing but lastHeard and its acks (flushAcks
// sends one as the acks' carrier of last resort).
func (n *Node) handleReplica(p *sched.Proc, m *message) {
	if len(m.rep.Acks) > 0 {
		n.onAcks(p, m)
	}
	switch m.kind {
	case wire.OpcodeRepRoute:
		n.onRoute(p, m)
	case wire.OpcodeRepAppend:
		n.onAppend(p, m)
	case wire.OpcodeRepStale:
		n.onStale(p, m)
	case wire.OpcodeRepVote:
		n.onVote(p, m)
	case wire.OpcodeRepVoteOK:
		n.onVoteOK(p, m)
	}
}

// tick runs the timers: heartbeats, owner retransmission, follower
// election timeouts, front end route resends (and owner-hint expiry).
func (n *Node) tick(p *sched.Proc) {
	if n.stopping {
		return
	}
	now := n.tr.now(p)
	n.lastHeard[n.cfg.ID] = now
	if now-n.lastBeat >= n.cfg.heartbeatEvery {
		n.lastBeat = now
		n.sendHeartbeats(p)
	}
	for _, sr := range n.shards {
		n.applyCommitted(p, sr) // retries a store that refused a committed entry
		if sr.own != nil {
			n.ownerTick(p, sr, now)
		} else {
			n.maybeElect(p, sr, now)
		}
	}
	if n.cfg.Frontend {
		n.resendDue(p, now)
	}
	n.gPendingRoutes.Set(int64(len(n.fe.routes)))
}

// sendRep stamps From, piggybacks any acks owed to the destination, and
// counts the send. The frame is built in the node's scratch (out, acks),
// which the transport encodes or copies before send returns.
func (n *Node) sendRep(p *sched.Proc, to NodeID, kind byte, rep wire.Rep) {
	m := &n.out
	m.kind, m.rep = kind, rep
	m.rep.From = uint16(n.cfg.ID)
	if wire.IsRepOpcode(kind) && len(rep.Acks) < wire.MaxRepAcks {
		// rep.Acks may be a window into sendHeartbeats' list: the owed acks
		// extend a copy of it.
		m.rep.Acks = n.takeAcks(append(n.acks[:0], rep.Acks...), to)
	}
	if c := n.cMsgSent[kind&0x0F]; c != nil && wire.IsRepOpcode(kind) {
		c.Inc()
	}
	n.tr.send(p, to, m)
	m.rep = wire.Rep{}
}

// sendHeartbeats broadcasts the node-level liveness beat. Toward fellow
// store nodes the owner folds in one AckCommit keepalive per owned shard
// — the committed-frontier carrier that used to be a per-shard empty
// append, now amortized over the heartbeat it rode next to anyway.
func (n *Node) sendHeartbeats(p *sched.Proc) {
	commits := n.beats[:0]
	for _, sr := range n.shards {
		if sr.own != nil {
			commits = append(commits, wire.RepAck{
				Kind: wire.AckCommit, Shard: uint16(sr.shard),
				Epoch: sr.epoch, Frontier: sr.committed, Last: sr.base,
			})
		}
	}
	n.beats = commits
	for i := 0; i < n.cfg.Nodes; i++ {
		to := NodeID(i)
		if to == n.cfg.ID {
			continue
		}
		if len(commits) > 0 && slices.Contains(n.cfg.StoreNodes, to) {
			for off := 0; off < len(commits); off += wire.MaxRepAcks {
				end := min(off+wire.MaxRepAcks, len(commits))
				n.sendRep(p, to, wire.OpcodeRepHeartbeat, wire.Rep{Acks: commits[off:end]})
			}
			continue
		}
		n.sendRep(p, to, wire.OpcodeRepHeartbeat, wire.Rep{})
	}
}
