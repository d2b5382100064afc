// Package cluster replicates the serving tier's per-shard logs across a
// set of nodes. Each shard has one owner at a time: the owner batches
// client routes into log entries, streams them to the follower replicas,
// and commits an entry once a majority of replicas holds it. Commit, then
// apply: on owner and followers alike an entry reaches the replica's store
// — the idempotent universal construction of internal/service — only after
// it has committed, so every store is a fold over the decided prefix of the
// log, nothing ever has to be undone, and the owner answers clients with
// the results of that apply — a committed response survives the owner's
// death. Followers apply as commits reach them, keeping live replicas
// whose dedup tables already hold every applied client op; failover is
// therefore an election plus a log reconciliation, not a replay from
// scratch, and a retried client op lands in the dedup table instead of
// applying twice.
//
// The package is written against a sealed Transport seam with two
// implementations:
//
//   - free mode (transport_free.go): real TCP between processes, framing
//     replication messages as the RPW1 OpcodeRep* opcodes (internal/wire,
//     docs/PROTOCOL.md §5) over write-only peer links; a node learns a
//     peer died from the protocol's heartbeats and ownerTimeout, and
//     sooner from a failed write on the link;
//   - virtual mode (transport_virtual.go): a simulated network inside one
//     deterministic sched.Run, where delay, loss, duplication and
//     partition are schedule decisions — every cluster behaviour,
//     including failover, replays bit-identically from a seed.
//
// One Node value is the whole per-process state machine: a front end that
// routes client ops to shard owners, and/or a store node that holds one
// single-shard service.Store per cluster shard. All protocol logic runs in
// a single event loop (Node.Run), identical in both modes, so what the
// virtual scenarios in sim.go exhaust is the code that serves real
// traffic.
//
// Safety notes (why the protocol is linearizable across handoff):
//
//   - Acks are cumulative: a follower acknowledging frontier F holds the
//     owner's every entry ≤ F, and stores see entries in log order, so
//     when an entry commits, everything it could have read from is
//     committed too — an answered read never exposes state that a
//     failover could roll back.
//   - Elections use the Raft vote rule: a candidate must present a
//     (last-entry epoch, frontier) pair lexicographically ≥ the voter's,
//     and each voter grants one vote per epoch, so the winner's log
//     contains every committed entry.
//   - A new owner appends an empty barrier entry in its own epoch and
//     counts commits only through it (the Raft §5.4.2 rule), so an
//     old-epoch entry is never committed by counting alone.
//   - A grant is a promise: the voter adopts the candidate's epoch, and
//     every frame of an older epoch is fenced from then on, so nothing the
//     owner it voted out still commits can count this replica.
//   - A follower trusts only the prefix of its log it has matched, entry
//     by entry, against the current owner's stream (shardRep.match, reset
//     to the committed frontier by every new epoch): it appends at
//     match+1 only, acks and commits no further than match, and an entry
//     it holds under another epoch than the owner's — a deposed owner's
//     uncommitted suffix — is dropped, with everything above it, for the
//     owner's. Nothing above committed has reached a store, so dropping
//     costs nothing and no replica ever has to retire.
//   - The owner cuts its log only below what it has applied and every live
//     follower has committed, and ships that floor in its frames;
//     followers cut no further. Whichever replica wins the next election
//     therefore still holds all that any live other is missing.
package cluster

import (
	"repro/internal/service"
	"repro/internal/wire"
)

// NodeID identifies one node of the deployment; node ids are dense
// [0, Nodes) and double as indices into address lists and wire.Rep.From.
type NodeID uint16

// Config shapes one Node. There is one log configuration: every node,
// virtual or free, cuts its replication log below what the owner has
// applied and every live replica has committed, so the virtual scenarios
// run exactly the log production runs.
type Config struct {
	// ID is this node's id; Nodes is the deployment size (ids are dense).
	ID    NodeID
	Nodes int
	// StoreNodes lists the nodes holding shard replicas, in preference
	// order: shard s's initial owner is StoreNodes[s%len(StoreNodes)], and
	// election staggering follows the same rotation. Every store node
	// replicates every shard. Quorum is a majority of StoreNodes.
	StoreNodes []NodeID
	// Shards is the cluster-wide shard count (service.ShardIndex keyspace).
	Shards int
	// Frontend nodes accept client ops and route them to shard owners;
	// Store nodes hold replicas. A node may be both (the default single
	// binary deployment) or either.
	Frontend bool
	Store    bool

	// MaxInflightEntries bounds the owner's pipelined window: how many
	// uncommitted log entries may be outstanding per shard before pump
	// stops cutting new ones. 1 degenerates to stop-and-wait (every entry
	// pays a full quorum round trip before the next forms). Commits are
	// still strictly in order — cumulative acks commit prefixes.
	MaxInflightEntries int
	// BatchWindow is how long the owner lets pending routes accumulate
	// before cutting a log entry (free mode: ns, virtual mode: steps),
	// trading bounded latency for fan-out amortization. 0 cuts on first
	// arrival. A full batch (maxEntryOps) always cuts immediately; the
	// effective wait is bounded by BatchWindow + tickEvery.
	BatchWindow int64

	// Logf, when non-nil, receives protocol-level event logs.
	Logf func(format string, args ...any)

	// timing is the protocol's timer table. New fills a zero table whole
	// with freeTiming or virtualTiming; only tests set another.
	timing
}

// timing holds the protocol's timers in transport clock units:
// nanoseconds in free mode, scheduler steps in virtual mode.
type timing struct {
	// tickEvery is the event loop's timer granularity.
	tickEvery int64
	// heartbeatEvery paces node-level heartbeats and owner append keepalives.
	heartbeatEvery int64
	// ownerTimeout is how long a follower waits without hearing its shard's
	// owner before considering an election.
	ownerTimeout int64
	// electionStagger spaces candidate start times by preference rank, so
	// the preferred live successor usually wins uncontested.
	electionStagger int64
	// electionBackoff is how long a candidate waits before retrying a
	// stalled election with a higher epoch.
	electionBackoff int64
	// routeTimeout is how long a front end waits for a routed op's RepDone
	// before resending to the currently believed owner — or, when that
	// owner has been silent for ownerTimeout, to the next store node in the
	// shard's preference order, which redirects to the owner it knows.
	routeTimeout int64
	// retransmitEvery paces the owner's resend of unacknowledged suffixes.
	retransmitEvery int64
}

// The two timer tables. Free mode's lands failover well under a second
// while heartbeat traffic stays negligible; virtual mode's completes
// failovers within a few thousand scheduler steps (budgets in sim.go
// depend on it). TestTimingRatios pins the orderings the node relies on.
var (
	freeTiming = timing{ // nanoseconds
		tickEvery: 5e6, heartbeatEvery: 25e6, ownerTimeout: 150e6, electionStagger: 75e6,
		electionBackoff: 300e6, routeTimeout: 100e6, retransmitEvery: 50e6,
	}
	virtualTiming = timing{ // scheduler steps
		tickEvery: 32, heartbeatEvery: 128, ownerTimeout: 640, electionStagger: 320,
		electionBackoff: 1024, routeTimeout: 512, retransmitEvery: 256,
	}
)

func (c Config) withDefaults(virtual bool) Config {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if len(c.StoreNodes) == 0 {
		for i := 0; i < c.Nodes; i++ {
			c.StoreNodes = append(c.StoreNodes, NodeID(i))
		}
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxInflightEntries <= 0 {
		c.MaxInflightEntries = 16
		if virtual {
			c.MaxInflightEntries = 4
		}
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.timing == (timing{}) {
		c.timing = freeTiming
		if virtual {
			c.timing = virtualTiming
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// quorum is the majority of the full replica set. Membership is static, so
// the quorum never moves — a dead replica still counts in the denominator
// (safety over availability).
func (c Config) quorum() int { return len(c.StoreNodes)/2 + 1 }

// pref returns shard s's owner preference order: StoreNodes rotated by s,
// so initial ownership spreads across the store nodes.
func (c Config) pref(s int) []NodeID {
	n := len(c.StoreNodes)
	out := make([]NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = c.StoreNodes[(s+i)%n]
	}
	return out
}

// Local-only message kinds. Values ≥ 0x80 never appear on the wire (RPW1
// opcodes are below it); they are injected into a node's own inbox.
const (
	// kindClient carries a client call into the event loop (m.call set).
	kindClient byte = 0x80
	// kindShutdown asks the loop to drain and exit.
	kindShutdown byte = 0x81
	// kindPeerDown is the free transport's advisory that a peer connection
	// died (a failed or timed-out write); m.rep.Peer is the dead node. It
	// ages the peer's liveness, it does not by itself depose an owner.
	kindPeerDown byte = 0x82
)

// message is one event-loop input: a decoded replication envelope (kind is
// the wire opcode) or a local control message (kind ≥ 0x80).
//
// Ownership: a message the loop receives, with every slice and string of
// its rep, is valid only until handle returns. The free transport then
// takes it back (Transport.release) and decodes a later frame into the same
// message, payload buffer and slices. So a handler copies what it keeps,
// into an opArena, whose memory is written once: onRoute the route's ops
// and onAppend each appended entry's ops into the shard's, onDone the
// result values into the front end's. A message handed to Transport.send is only
// lent: the transport encodes or copies it before send returns, and the
// node reuses it.
type message struct {
	kind byte
	rep  wire.Rep
	call *clientCall
	// home is the free list release returns the message to; nil for
	// messages that are never recycled (client calls, control messages,
	// every virtual-mode message).
	home *msgPool
	// buf is the frame payload rep's strings alias (free-mode inbound).
	buf []byte
}

// copyFrom makes m a copy of src that shares none of src's reused memory,
// appending into m's own slices. Entries stay shared: log slots are
// write-once, and a virtual frame must read what truncation leaves of them.
func (m *message) copyFrom(src *message) {
	r := m.rep
	m.kind, m.call, m.rep = src.kind, src.call, src.rep
	m.rep.Ops = append(r.Ops[:0], src.rep.Ops...)
	m.rep.Results = append(r.Results[:0], src.rep.Results...)
	m.rep.Acks = append(r.Acks[:0], src.rep.Acks...)
}

// clientCall is one client batch traversing the front end: ops in, index-
// aligned results out. In free mode the caller blocks on done, which the
// loop signals once per use; in virtual mode the submitting proc Parks on
// answered, which the event loop sets under the step token.
//
// Free-mode calls are recycled (Node.getCall, putCall) once they succeed:
// a call that failed may still have routes pending at the front end, and a
// call abandoned on its deadline may still be answered, so neither is ever
// reused.
type clientCall struct {
	ops       []service.Op
	results   []service.Result
	remaining int // routes not yet answered
	err       error
	answered  bool
	done      chan struct{} // free mode only; 1-buffered, never closed
	msg       message       // carries the call into the loop

	// Do's one op and result, so a one-op call needs no slices of its own.
	one    [1]service.Op
	oneRes [1]service.Result
	// The call's routes and their storage, reused with the call: each
	// route's ops and positions are a window of rops and ridx, where each
	// shard's ops lie together in call order (startCall).
	routes []route
	rops   []service.Op
	ridx   []int
}

func (cc *clientCall) finish(err error) {
	cc.err = err
	cc.answered = true
	if cc.done != nil {
		cc.done <- struct{}{}
	}
}
