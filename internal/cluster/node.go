package cluster

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
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

// shardRep is one shard's replica state on a store node: the replicated
// log, the role (owner or follower), and the owner/election bookkeeping.
// All fields are event-loop-owned.
type shardRep struct {
	shard   int
	epoch   uint64
	owner   NodeID
	isOwner bool

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

	// Follower state: an ack is owed to the owner and will piggyback on
	// the next outbound frame toward it (or a heartbeat at the end of the
	// loop iteration — see flushAcks).
	ackOwed bool

	// Owner state.
	nextSeq  uint64
	pend     []pendRoute
	pendSet  map[uint64]struct{}
	inflight []inflightEntry // unanswered window, ascending seq
	acked    map[NodeID]uint64
	// ackedCommit is what each follower reports committed; the owner's log
	// floor never passes a live follower's (see checkCommit).
	ackedCommit map[NodeID]uint64
	// sentTo is the highest seq streamed to each follower (≥ acked while
	// frames are in flight): appends push only the new suffix instead of
	// re-sending the whole unacked window, and retransmission resets it
	// to acked so a lost frame is recovered from the lowest unacked seq.
	sentTo   map[NodeID]uint64
	lastRetx int64

	// Election state (candidate side).
	electEpoch   uint64
	electStarted int64
	votes        map[NodeID]bool
	votedEpoch   uint64
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
	j := i + max
	if j > len(sr.entries) {
		j = len(sr.entries)
	}
	return sr.entries[i:j]
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

func (sr *shardRep) dropOwnerState() {
	sr.pend = nil
	sr.pendSet = map[uint64]struct{}{}
	sr.inflight = nil
	sr.sentTo = map[NodeID]uint64{}
}

// sendFrom is the seq after which follower f still needs entries: the
// higher of what it acknowledged and what is already streaming to it.
func (sr *shardRep) sendFrom(f NodeID) uint64 {
	af := sr.acked[f]
	if st := sr.sentTo[f]; st > af {
		return st
	}
	return af
}

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
	cfg     Config
	tr      Transport
	stores  []*service.Store // len cfg.Shards when cfg.Store, else nil
	virtual bool
	quorum  int

	// Event-loop-owned state.
	shards     []*shardRep
	owners     []NodeID // front end's believed owner per shard
	lastHeard  []int64
	lastBeat   int64
	routes     map[uint64]*route
	nextReq    uint64
	nextOpSeq  uint64
	stopping   bool
	dueScratch []uint64 // tick's reused timed-out-route id buffer
	ackScratch []uint64 // checkCommit's reused per-store-node ack buffer
	// isStore marks the store nodes, indexed by NodeID (sendHeartbeats folds
	// commit keepalives into the beats toward them only).
	isStore []bool

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

	// Off-loop snapshot for Status, refreshed by the loop.
	smu       sync.Mutex
	view      []ShardStatus
	viewPend  int
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
		stores:      stores,
		virtual:     virtual,
		quorum:      cfg.quorum(),
		routes:      map[uint64]*route{},
		loopDone:    make(chan struct{}),
		reg:         metrics.NewRegistry(),
		maxEntryOps: 512,
	}
	if virtual {
		n.maxEntryOps = 8
	}
	if !cfg.Store {
		n.stores = nil
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
		t.setDrops(n.drops) // accept/ping goroutines already run, hence atomic
	}
	for op, name := range opcodeNames {
		n.cMsgSent[op] = n.reg.Counter("cluster_messages_sent_total", "replication messages sent by kind",
			metrics.Labels{{Name: "kind", Value: name}})
		n.cMsgRecv[op] = n.reg.Counter("cluster_messages_recv_total", "replication messages received by kind",
			metrics.Labels{{Name: "kind", Value: name}})
	}

	n.owners = make([]NodeID, cfg.Shards)
	n.shards = make([]*shardRep, cfg.Shards)
	n.view = make([]ShardStatus, cfg.Shards)
	n.lastHeard = make([]int64, cfg.Nodes)
	n.isStore = make([]bool, cfg.Nodes)
	for _, f := range cfg.StoreNodes {
		n.isStore[f] = true
	}
	for s := 0; s < cfg.Shards; s++ {
		owner := cfg.pref(s)[0]
		n.owners[s] = owner
		sr := &shardRep{
			shard:       s,
			epoch:       1,
			owner:       owner,
			isOwner:     cfg.Store && owner == cfg.ID,
			nextSeq:     1,
			pendSet:     map[uint64]struct{}{},
			acked:       map[NodeID]uint64{},
			sentTo:      map[NodeID]uint64{},
			ackedCommit: map[NodeID]uint64{},
		}
		n.shards[s] = sr
		n.view[s] = ShardStatus{Shard: s, Owner: owner, Epoch: 1, IsOwner: sr.isOwner}
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
	pend := n.viewPend
	n.smu.Unlock()
	return Status{
		Node: n.cfg.ID, Frontend: n.cfg.Frontend, Store: n.cfg.Store,
		Shards: shards, PendingRoutes: pend,
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

// ShardState exposes one shard's replica bookkeeping for checkers (free-mode
// tests must only call this after the loop has exited).
func (n *Node) ShardState(shard int) ShardStatus {
	sr := n.shards[shard]
	return ShardStatus{
		Shard: shard, Owner: sr.owner, Epoch: sr.epoch, IsOwner: sr.isOwner,
		Frontier: sr.frontier, Committed: sr.committed,
	}
}

// ---------------------------------------------------------------------------
// Client surface.

// Do routes one op through the cluster (front end role required).
func (n *Node) Do(ctx context.Context, op service.Op) (service.Result, error) {
	res, err := n.DoBatch(ctx, []service.Op{op})
	if err != nil {
		return service.Result{}, err
	}
	return res[0], nil
}

// DoBatch routes a batch: ops are split per shard, routed to each shard's
// owner, and the index-aligned results assembled as the owners answer.
// It blocks until every split has been answered (failover included — the
// front end retransmits until a new owner emerges) or ctx is done.
func (n *Node) DoBatch(ctx context.Context, ops []service.Op) ([]service.Result, error) {
	if n.closed.Load() {
		return nil, service.ErrClosed
	}
	cc := &clientCall{ops: ops, results: make([]service.Result, len(ops)), done: make(chan struct{})}
	if !n.tr.inject(nil, &message{kind: kindClient, call: cc}) {
		return nil, service.ErrClosed // lost the race with shutdown's inbox drain
	}
	select {
	case <-cc.done:
		return cc.results, cc.err
	case <-ctx.Done():
		// The call stays routed; like a crashed client, its ops may still
		// commit (idempotently, under their stamped ids).
		return nil, service.ErrDeadline
	}
}

// DoBatchOn is DoBatch for a virtual-mode proc: it parks p until the call
// is answered.
func (n *Node) DoBatchOn(p *sched.Proc, ops []service.Op) ([]service.Result, error) {
	if n.closed.Load() {
		return nil, service.ErrClosed
	}
	cc := &clientCall{ops: ops, results: make([]service.Result, len(ops))}
	if !n.tr.inject(p, &message{kind: kindClient, call: cc}) {
		return nil, service.ErrClosed // lost the race with shutdown's inbox drain
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
		m, ok := n.tr.recv(p, n.tr.now(p)+n.cfg.TickEvery)
		if ok {
			n.handle(p, m)
			// Drain the rest of the burst before ticking: everything the
			// burst makes us send coalesces into one flush below, and the
			// acks it leaves owed fold into that same flush's frames.
			for i := 0; i < burstDrain && !n.stopping; i++ {
				if m, ok = n.tr.tryRecv(p); !ok {
					break
				}
				n.handle(p, m)
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
	// Fail every unanswered client call.
	ids := make([]uint64, 0, len(n.routes))
	for id := range n.routes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := n.routes[id]
		delete(n.routes, id)
		if !r.call.answered {
			r.call.finish(service.ErrClosed)
		}
	}
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

// handle dispatches one inbox message.
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
		if len(m.rep.Acks) > 0 && n.cfg.Store {
			n.onAcks(p, m)
		}
	}
	switch m.kind {
	case kindClient:
		n.startCall(p, m.call)
	case kindShutdown:
		n.stopping = true
	case kindPeerDown:
		n.onPeerDown(p, NodeID(m.rep.Peer))
	case wire.OpcodeRepHeartbeat:
		// lastHeard refreshed and the acks section dispatched above; a
		// heartbeat is nothing else (flushAcks sends one as the acks'
		// carrier of last resort).
	case wire.OpcodeRepRoute:
		n.onRoute(p, m)
	case wire.OpcodeRepDone:
		n.onDone(p, m)
	case wire.OpcodeRepRedirect:
		n.onRedirect(p, m)
	case wire.OpcodeRepAppend:
		n.onAppend(p, m)
	case wire.OpcodeRepStale:
		n.onStale(p, m)
	case wire.OpcodeRepVote:
		n.onVote(p, m)
	case wire.OpcodeRepVoteOK:
		n.onVoteOK(p, m)
	case wire.OpcodeRepOwner:
		n.onOwner(p, m)
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
	if now-n.lastBeat >= n.cfg.HeartbeatEvery {
		n.lastBeat = now
		n.sendHeartbeats(p)
	}
	if n.cfg.Store {
		for _, sr := range n.shards {
			n.applyCommitted(p, sr) // retries a store that refused a committed entry
			if sr.isOwner {
				n.pump(p, sr)
				if now-sr.lastRetx >= n.cfg.RetransmitEvery {
					sr.lastRetx = now
					for _, f := range n.cfg.StoreNodes {
						if f == n.cfg.ID || sr.acked[f] >= sr.frontier {
							continue // fully acked: the heartbeat keepalive suffices
						}
						// Retransmit from the lowest unacked seq: whatever was
						// streamed since the last ack may have been lost.
						sr.sentTo[f] = sr.acked[f]
						n.sendSuffix(p, sr, f)
					}
				}
			} else {
				n.maybeElect(p, sr, now)
			}
		}
	}
	if n.cfg.Frontend && len(n.routes) > 0 {
		// Scan for timed-out routes only, into a reused buffer: the common
		// tick (nothing due) allocates nothing, and the sort keeps resends
		// deterministic despite map iteration order.
		due := n.dueScratch[:0]
		for id, r := range n.routes {
			if now-r.sentAt >= n.cfg.RouteTimeout {
				due = append(due, id)
			}
		}
		if len(due) > 0 {
			sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
			for _, id := range due {
				r := n.routes[id]
				r.sentAt = now
				if o := n.owners[r.shard]; now-n.lastHeard[o] >= n.cfg.OwnerTimeout {
					// The hint expires: an owner silent this long is dead or cut
					// off, and its successor's one owner broadcast may have been
					// lost. The next store node in preference order redirects to
					// the owner it knows, or owns the shard by now.
					pref := n.cfg.pref(r.shard)
					n.owners[r.shard] = pref[(slices.Index(pref, o)+1)%len(pref)]
				}
				n.cRouteRetries.Inc()
				n.sendRoute(p, id, r)
			}
		}
		n.dueScratch = due[:0]
	}
	n.gPendingRoutes.Set(int64(len(n.routes)))
	n.smu.Lock()
	n.viewPend = len(n.routes)
	n.smu.Unlock()
}

// sendRep stamps From, piggybacks any acks owed to the destination, and
// counts the send.
func (n *Node) sendRep(p *sched.Proc, to NodeID, kind byte, rep wire.Rep) {
	rep.From = uint16(n.cfg.ID)
	if wire.IsRepOpcode(kind) && len(rep.Acks) < wire.MaxRepAcks {
		if extra := n.takeAcks(to, wire.MaxRepAcks-len(rep.Acks)); len(extra) > 0 {
			// Fresh slice: rep.Acks may be a window into a shared array
			// (sendHeartbeats chunks one keepalive list across frames).
			acks := make([]wire.RepAck, 0, len(rep.Acks)+len(extra))
			rep.Acks = append(append(acks, rep.Acks...), extra...)
		}
	}
	if c := n.cMsgSent[kind&0x0F]; c != nil && wire.IsRepOpcode(kind) {
		c.Inc()
	}
	n.tr.send(p, to, &message{kind: kind, rep: rep})
}

// sendHeartbeats broadcasts the node-level liveness beat. Toward fellow
// store nodes the owner folds in one AckCommit keepalive per owned shard
// — the committed-frontier carrier that used to be a per-shard empty
// append, now amortized over the heartbeat it rode next to anyway.
func (n *Node) sendHeartbeats(p *sched.Proc) {
	var commits []wire.RepAck
	if n.cfg.Store {
		for _, sr := range n.shards {
			if sr.isOwner {
				commits = append(commits, wire.RepAck{
					Kind: wire.AckCommit, Shard: uint16(sr.shard),
					Epoch: sr.epoch, Frontier: sr.committed, Last: sr.base,
				})
			}
		}
	}
	for i := 0; i < n.cfg.Nodes; i++ {
		to := NodeID(i)
		if to == n.cfg.ID {
			continue
		}
		if len(commits) > 0 && n.isStore[i] {
			for off := 0; off < len(commits); off += wire.MaxRepAcks {
				end := min(off+wire.MaxRepAcks, len(commits))
				n.sendRep(p, to, wire.OpcodeRepHeartbeat, wire.Rep{Acks: commits[off:end]})
			}
			continue
		}
		n.sendRep(p, to, wire.OpcodeRepHeartbeat, wire.Rep{})
	}
}

// takeAcks collects the piggybacked follower acks owed to node to, up to
// max, clearing their owed flags. Every outbound replication frame calls
// this through sendRep, so an owed ack rides whatever traffic goes the
// owner's way first.
func (n *Node) takeAcks(to NodeID, max int) []wire.RepAck {
	if !n.cfg.Store || max <= 0 {
		return nil
	}
	var acks []wire.RepAck
	for _, sr := range n.shards {
		if !sr.ackOwed {
			continue
		}
		if sr.isOwner {
			sr.ackOwed = false // owners owe none
			continue
		}
		if sr.owner != to {
			continue
		}
		sr.ackOwed = false
		acks = append(acks, wire.RepAck{
			Kind: wire.AckAppended, Shard: uint16(sr.shard), Epoch: sr.epoch,
			Frontier: sr.match, Last: sr.committed,
		})
		if len(acks) >= max {
			break
		}
	}
	return acks
}

// flushAcks sends a heartbeat to each owner still owed acks after the
// iteration's own traffic had its chance to carry them. The
// sendRep inside collects every owed shard for that owner at once, so
// this is one frame per owner per loop iteration (more only past the
// per-frame ack cap).
func (n *Node) flushAcks(p *sched.Proc) {
	if !n.cfg.Store || n.stopping {
		return
	}
	for _, sr := range n.shards {
		if sr.ackOwed && !sr.isOwner {
			n.sendRep(p, sr.owner, wire.OpcodeRepHeartbeat, wire.Rep{})
		}
	}
}

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

// applyCommitted drives the committed entries the local store has not seen
// through it in log order — the only path into the store, on owners and
// followers alike — and, on the owner, answers each entry's routes with
// the results of that call.
func (n *Node) applyCommitted(p *sched.Proc, sr *shardRep) {
	for sr.applied < sr.committed {
		e := sr.entryAt(sr.applied + 1)
		var results []service.Result
		if len(e.Ops) > 0 && (sr.isOwner || n.bug != bugSkipApply) {
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
		if len(sr.inflight) == 0 || sr.inflight[0].seq != e.Seq {
			continue // inherited from a previous owner: its clients retransmit
		}
		for _, r := range sr.inflight[0].routes {
			delete(sr.pendSet, r.reqid)
			n.sendDone(p, sr.shard, r.from, r.reqid, results[:len(r.ops)])
			results = results[len(r.ops):]
		}
		sr.inflight[0] = inflightEntry{}
		sr.inflight = sr.inflight[1:]
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

func (n *Node) syncView(sr *shardRep) {
	n.smu.Lock()
	n.view[sr.shard] = ShardStatus{
		Shard: sr.shard, Owner: sr.owner, Epoch: sr.epoch, IsOwner: sr.isOwner,
		Frontier: sr.frontier, Committed: sr.committed,
	}
	n.smu.Unlock()
	var owned int64
	for _, s := range n.shards {
		if s.isOwner {
			owned++
		}
	}
	n.gOwned.Set(owned)
}

// ---------------------------------------------------------------------------
// Front end: routing.

// startCall splits a client call per shard and routes each slice to its
// owner.
func (n *Node) startCall(p *sched.Proc, cc *clientCall) {
	if !n.cfg.Frontend || n.stopping {
		cc.finish(service.ErrClosed)
		return
	}
	if len(cc.ops) == 0 {
		cc.finish(nil)
		return
	}
	// Per shard, a call may split into several routes: each route's ops are
	// bounded by encoded byte size (maxRouteBytes) and count (MaxBatchOps),
	// so the route frame, the log entry batching it, and the append frame
	// replicating that entry are all encodable — a client's RPW1 batch frame
	// carries up to wire.MaxBatchOps ops whose payloads together can exceed
	// maxRouteBytes, and it must never produce a frame the wire layer
	// refuses, because refused frames retry identically forever.
	open := make([]*route, n.cfg.Shards) // the still-filling route per shard
	var rts []*route
	for i, op := range cc.ops {
		if op.ID == 0 {
			// Stamp an idempotency id so a failover retransmission can never
			// apply the op twice (high 16 bits: node, below: a local counter).
			n.nextOpSeq++
			op.ID = (uint64(n.cfg.ID)+1)<<48 | n.nextOpSeq
		}
		s := service.ShardIndex(op.Key, n.cfg.Shards)
		sz := wire.EncodedOpSize(op)
		r := open[s]
		if r == nil || len(r.ops) >= wire.MaxBatchOps || r.bytes+sz > maxRouteBytes {
			r = &route{call: cc, shard: s}
			open[s] = r
			rts = append(rts, r)
		}
		r.ops = append(r.ops, op)
		r.idxs = append(r.idxs, i)
		r.bytes += sz
	}
	now := n.tr.now(p)
	for _, r := range rts {
		cc.remaining++
		n.nextReq++
		reqid := (uint64(n.cfg.ID)+1)<<48 | n.nextReq
		n.routes[reqid] = r
		r.sentAt = now
		n.sendRoute(p, reqid, r)
	}
}

func (n *Node) sendRoute(p *sched.Proc, reqid uint64, r *route) {
	n.sendRep(p, n.owners[r.shard], wire.OpcodeRepRoute, wire.Rep{
		Shard: uint16(r.shard), ReqID: reqid, Ops: r.ops,
	})
}

// onDone merges one answer chunk into its route and completes the route
// once every result has arrived. Seq carries the chunk's first result
// index and Frontier the route's total result count (docs/PROTOCOL.md
// §5.2); the common small answer is a single chunk covering everything.
// Chunks are idempotent by index, so duplicated frames and the full
// resend after a route retransmission merge cleanly.
func (n *Node) onDone(_ *sched.Proc, m *message) {
	r, ok := n.routes[m.rep.ReqID]
	if !ok {
		return // duplicate answer
	}
	cc := r.call
	if cc.answered {
		delete(n.routes, m.rep.ReqID)
		return
	}
	total, off := int(m.rep.Frontier), int(m.rep.Seq)
	if total != len(r.ops) || off < 0 || off+len(m.rep.Results) > total {
		delete(n.routes, m.rep.ReqID)
		cc.finish(errors.New("cluster: misaligned route results"))
		return
	}
	if r.got == nil {
		r.got = make([]bool, len(r.ops))
	}
	for i, res := range m.rep.Results {
		cc.results[r.idxs[off+i]] = res
		if !r.got[off+i] {
			r.got[off+i] = true
			r.recvd++
		}
	}
	if r.recvd < len(r.ops) {
		return // more chunks outstanding
	}
	delete(n.routes, m.rep.ReqID)
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
	n.owners[s] = w
	if r, ok := n.routes[m.rep.ReqID]; ok && !r.call.answered {
		n.cRedirects.Inc()
		r.sentAt = n.tr.now(p)
		n.sendRoute(p, m.rep.ReqID, r)
	}
}

// ---------------------------------------------------------------------------
// Store node: owner side.

// onRoute queues a client route at the owner (or redirects the front end
// to where it believes the owner is).
func (n *Node) onRoute(p *sched.Proc, m *message) {
	if !n.cfg.Store {
		return
	}
	sr := n.shards[m.rep.Shard]
	from := NodeID(m.rep.From)
	if !sr.isOwner {
		n.sendRep(p, from, wire.OpcodeRepRedirect, wire.Rep{
			Shard: m.rep.Shard, ReqID: m.rep.ReqID, Peer: uint16(sr.owner),
		})
		return
	}
	if _, dup := sr.pendSet[m.rep.ReqID]; dup {
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
	sr.pendSet[m.rep.ReqID] = struct{}{}
	sr.pend = append(sr.pend, pendRoute{
		from: from, reqid: m.rep.ReqID, ops: m.rep.Ops, bytes: bytes, at: n.tr.now(p),
	})
	n.pump(p, sr)
}

// pump drives the owner's replication pipeline: while the pipelined
// window has room and routes are pending, batch routes into the next log
// entry and stream it to the followers. Up to MaxInflightEntries entries
// are outstanding per shard; commits stay strictly in order (checkCommit
// answers prefixes). With a BatchWindow, a non-full batch waits out the
// window before cutting — tick re-pumps, so the extra wait is bounded by
// BatchWindow + TickEvery.
func (n *Node) pump(p *sched.Proc, sr *shardRep) {
	for len(sr.inflight) < n.cfg.MaxInflightEntries && len(sr.pend) > 0 &&
		!n.stopping && sr.isOwner {
		if n.cfg.BatchWindow > 0 {
			total := 0
			for _, r := range sr.pend {
				total += len(r.ops)
			}
			if total < n.maxEntryOps && n.tr.now(p)-sr.pend[0].at < n.cfg.BatchWindow {
				return // let the batch fill; the oldest route bounds the wait
			}
		}
		var batch []pendRoute
		total, bytes := 0, entryOverheadBytes
		for len(sr.pend) > 0 {
			r := sr.pend[0]
			if len(batch) > 0 && (total+len(r.ops) > n.maxEntryOps || bytes+r.bytes > maxEntryBytes) {
				break
			}
			batch = append(batch, r)
			total += len(r.ops)
			bytes += r.bytes
			sr.pend = sr.pend[1:]
			if total >= n.maxEntryOps {
				break
			}
		}
		ops := make([]service.Op, 0, total)
		for _, r := range batch {
			ops = append(ops, r.ops...)
		}
		n.appendEntry(p, sr, wire.RepEntry{Seq: sr.nextSeq, Epoch: sr.epoch, Ops: ops}, batch)
	}
}

// appendEntry installs the owner's next log entry and streams the new
// suffix to followers that aren't already being streamed it.
func (n *Node) appendEntry(p *sched.Proc, sr *shardRep, e wire.RepEntry, batch []pendRoute) {
	sr.appendLocal(e)
	sr.nextSeq = e.Seq + 1
	sr.match = sr.frontier
	sr.acked[n.cfg.ID] = sr.frontier
	sr.inflight = append(sr.inflight, inflightEntry{seq: e.Seq, routes: batch})
	for _, f := range n.cfg.StoreNodes {
		if f != n.cfg.ID && sr.sendFrom(f) < sr.frontier {
			n.sendSuffix(p, sr, f)
		}
	}
	n.checkCommit(p, sr) // single-replica clusters commit immediately
}

// sendSuffix sends follower f its next missing log chunk, starting after
// what it acked or is already being streamed (or an empty append as a
// frontier probe when the follower is behind the truncation point).
func (n *Node) sendSuffix(p *sched.Proc, sr *shardRep, f NodeID) {
	af := sr.sendFrom(f)
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
		sr.sentTo[f] = avail[cnt-1].Seq
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
	if !sr.isOwner || a.Epoch != sr.epoch {
		return
	}
	af := a.Frontier
	if n.bug == bugAckFullWindow {
		af = sr.frontier
	}
	if af > sr.frontier {
		return // no follower holds more of this epoch's log than its owner
	}
	sr.acked[from] = max(sr.acked[from], af)
	sr.ackedCommit[from] = max(sr.ackedCommit[from], a.Last)
	n.checkCommit(p, sr)
	if sr.sendFrom(from) < sr.frontier {
		n.sendSuffix(p, sr, from)
	}
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
	if total == 0 {
		n.sendRep(p, to, wire.OpcodeRepDone, wire.Rep{Shard: uint16(shard), ReqID: reqid})
		return
	}
	for off := 0; off < total; {
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
		off += cnt
	}
}

// checkCommit advances the committed frontier to the highest seq a quorum
// has acknowledged — but only through entries of the owner's own epoch
// (the Raft §5.4.2 rule; the barrier entry appended at election makes this
// live; acks are cumulative, so committing seq c commits the prefix
// beneath it) — then applies and answers what the commit covers, in log
// order, and pumps the freed window slots.
func (n *Node) checkCommit(p *sched.Proc, sr *shardRep) {
	// Runs on every ack: the node's scratch and slices.Sort (in place, an
	// insertion sort at this size) allocate nothing.
	acks := n.ackScratch[:0]
	for _, f := range n.cfg.StoreNodes {
		acks = append(acks, sr.acked[f])
	}
	n.ackScratch = acks
	slices.Sort(acks)
	c := acks[len(acks)-n.quorum] // the quorum-th highest
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
	// OwnerTimeout is not waited for and may fall behind the floor for good.)
	now := n.tr.now(p)
	floor := sr.applied
	for _, f := range n.cfg.StoreNodes {
		if f != n.cfg.ID && now-n.lastHeard[f] < n.cfg.OwnerTimeout {
			floor = min(floor, sr.ackedCommit[f])
		}
	}
	sr.truncate(floor)
	n.pump(p, sr)
}

// ---------------------------------------------------------------------------
// Store node: follower side.

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
	if epoch > sr.epoch || sr.owner != from || sr.isOwner {
		n.adoptOwner(p, sr, epoch, from)
	}
	sr.lastOwnerHeard = n.tr.now(p)
	return true
}

// onAppend takes a replicated suffix into the log — never into the store.
// Entries are checked one by one from the matched prefix up: one already
// held extends the match, one held under another epoch is a deposed
// owner's and makes way, with everything above it, for the owner's, and
// the first past match+1 ends the frame (a chunk was lost; the owner
// restreams from the ack).
func (n *Node) onAppend(p *sched.Proc, m *message) {
	if !n.cfg.Store {
		return
	}
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

// adoptOwner accepts a (new) owner for the shard, stepping down if this
// node owned it.
func (n *Node) adoptOwner(p *sched.Proc, sr *shardRep, epoch uint64, w NodeID) {
	if sr.isOwner {
		// Deposed: unanswered in-flight routes are dropped, their front
		// ends retransmit to the new owner, where the dedup table makes the
		// retry idempotent.
		sr.dropOwnerState()
	}
	if epoch > sr.epoch {
		sr.match = sr.committed
	}
	sr.epoch = epoch
	sr.owner = w
	sr.isOwner = false
	sr.electEpoch = 0
	sr.lastOwnerHeard = n.tr.now(p)
	n.owners[sr.shard] = w
	n.syncView(sr)
}

// onStale handles the fencing message: it tells a deposed owner (or stale
// candidate) the current epoch and owner.
func (n *Node) onStale(p *sched.Proc, m *message) {
	if !n.cfg.Store {
		return
	}
	sr := n.shards[m.rep.Shard]
	// A peer that granted this node's still-open candidacy names this node.
	if w := NodeID(m.rep.Peer); int(w) < n.cfg.Nodes && w != n.cfg.ID && m.rep.Epoch > sr.epoch {
		n.adoptOwner(p, sr, m.rep.Epoch, w)
	}
}

// ---------------------------------------------------------------------------
// Elections and failover.

// onPeerDown ages a peer after the free transport lost its connection:
// node-level liveness expires immediately, and any shard the peer owned
// has its owner timeout expired so the election stagger starts now.
func (n *Node) onPeerDown(p *sched.Proc, id NodeID) {
	if int(id) >= n.cfg.Nodes || id == n.cfg.ID {
		return
	}
	now := n.tr.now(p)
	n.lastHeard[id] = now - n.cfg.OwnerTimeout - 1
	if n.cfg.Store {
		for _, sr := range n.shards {
			if sr.owner == id && !sr.isOwner && sr.lastOwnerHeard > now-n.cfg.OwnerTimeout {
				sr.lastOwnerHeard = now - n.cfg.OwnerTimeout
			}
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
		if now-n.lastHeard[f] < n.cfg.OwnerTimeout {
			r++
		}
	}
	return r
}

// maybeElect starts (or retries) an election once the owner has been
// silent past OwnerTimeout plus this node's stagger.
func (n *Node) maybeElect(p *sched.Proc, sr *shardRep, now int64) {
	elapsed := now - sr.lastOwnerHeard
	if elapsed < n.cfg.OwnerTimeout+n.rank(sr, now)*n.cfg.ElectionStagger {
		return
	}
	if sr.electEpoch != 0 && now-sr.electStarted < n.cfg.ElectionBackoff {
		return // election in progress; give it time before escalating
	}
	n.startElection(p, sr, now, 0)
}

// startElection opens a candidacy at an epoch above everything this node
// has seen or voted (and at least atLeast — the escalation path uses it to
// jump past a stalled rival).
func (n *Node) startElection(p *sched.Proc, sr *shardRep, now int64, atLeast uint64) {
	e := sr.epoch
	if sr.votedEpoch > e {
		e = sr.votedEpoch
	}
	e++
	if e < atLeast {
		e = atLeast
	}
	sr.electEpoch = e
	sr.electStarted = now
	sr.votedEpoch = e // vote for self
	sr.votes = map[NodeID]bool{n.cfg.ID: true}
	n.cElections.Inc()
	n.cfg.Logf("cluster: node %d shard %d: election epoch %d (frontier %d)",
		n.cfg.ID, sr.shard, e, sr.frontier)
	if len(sr.votes) >= n.quorum {
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
	if !n.cfg.Store {
		return
	}
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
		if !sr.isOwner && now-sr.lastOwnerHeard >= n.cfg.OwnerTimeout {
			n.startElection(p, sr, now, e+1)
		}
		return
	}
	sr.votedEpoch = e
	if n.bug == bugGrantNoPromise {
		sr.electEpoch, sr.lastOwnerHeard = 0, n.tr.now(p)
	} else {
		// Also cancels our own candidacy and restarts the owner timeout.
		n.adoptOwner(p, sr, e, NodeID(m.rep.From))
	}
	n.sendRep(p, NodeID(m.rep.From), wire.OpcodeRepVoteOK, wire.Rep{
		Shard: m.rep.Shard, Epoch: e, Frontier: sr.frontier, Seq: sr.lastEpoch,
	})
}

// onVoteOK collects grants; a majority of the full replica set wins.
func (n *Node) onVoteOK(p *sched.Proc, m *message) {
	if !n.cfg.Store {
		return
	}
	sr := n.shards[m.rep.Shard]
	if sr.electEpoch == 0 || m.rep.Epoch != sr.electEpoch || sr.isOwner {
		return
	}
	sr.votes[NodeID(m.rep.From)] = true
	if len(sr.votes) >= n.quorum {
		n.becomeOwner(p, sr)
	}
}

// becomeOwner completes a won election: adopt the new epoch, announce
// ownership to every node, and append the barrier entry that (once a
// quorum acks it) commits the whole inherited log under the new epoch.
func (n *Node) becomeOwner(p *sched.Proc, sr *shardRep) {
	sr.epoch = sr.electEpoch
	sr.electEpoch = 0
	sr.owner = n.cfg.ID
	sr.isOwner = true
	sr.nextSeq = sr.frontier + 1
	sr.acked = map[NodeID]uint64{n.cfg.ID: sr.frontier}
	sr.ackedCommit = map[NodeID]uint64{}
	sr.dropOwnerState()
	sr.ackOwed = false
	sr.lastRetx = n.tr.now(p)
	n.owners[sr.shard] = n.cfg.ID
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
	n.appendEntry(p, sr, wire.RepEntry{Seq: sr.nextSeq, Epoch: sr.epoch}, nil)
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
		if w != n.cfg.ID && (e > sr.epoch || (e == sr.epoch && !sr.isOwner && sr.owner != w)) {
			n.adoptOwner(p, sr, e, w)
		}
	}
	if n.cfg.Frontend {
		n.owners[s] = w
		now := n.tr.now(p)
		ids := make([]uint64, 0, len(n.routes))
		for id, r := range n.routes {
			if r.shard == s {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			r := n.routes[id]
			r.sentAt = now
			n.sendRoute(p, id, r)
		}
	}
}
