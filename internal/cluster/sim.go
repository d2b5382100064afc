package cluster

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Sweep-harness registration: whole cluster deployments under the
// simulated network. Every scenario runs a complete multi-node cluster —
// submitter clients, a front end router, store nodes with per-shard
// replica stores, and the full replication protocol (ownership, quorum
// commit, elections, suffix replacement) — as procs of one controlled sched.Run,
// with the VirtualNet's delay, loss, duplication and partition faults all
// drawn from the seed. Node event-loop crashes (the owner dying mid-load)
// are CrashAt schedule decisions like any other proc crash. Nodes run the
// production configuration: logs are cut below the owner's floor exactly as
// in a served deployment.
//
// After every run the checker (check.go) reconstructs the canonical
// committed chain from each replica's applied-entry recorder, which build
// installs, joined with its kept log, and judges every client observation
// exhaustively: replay equality, cross-replica agreement, and per-key
// linearizability over the real-time client history. Failures replay
// bit-identically from their "cluster:<scenario>:<seed>" token
// (cmd/sim -replay).
//
// Proc layout of every scenario's run (crash plans index into it):
//
//	0 .. subs-1     submitter clients
//	subs            driver (waits for the submitters, then closes the nodes)
//	subs+1+i        node i's event loop, i in [0, nodes)
//	then            replica store procs: one per (store node, shard),
//	                store-node-major (audit disabled, 1 worker, so each
//	                replica store is exactly one proc)
func init() {
	for _, sc := range clusterScenarios() {
		sim.Register(sc)
	}
}

// ctopo fixes one scenario's deployment shape.
type ctopo struct {
	subs   int
	nodes  int
	stores []NodeID // store-role nodes, preference order
	fronts []NodeID // frontend-role nodes; submitters round-robin over them
	shards int
}

func (t ctopo) procs() int         { return t.subs + 1 + t.nodes + len(t.stores)*t.shards }
func (t ctopo) driverID() int      { return t.subs }
func (t ctopo) nodeProc(i int) int { return t.subs + 1 + i }
func (t ctopo) storeBase() int     { return t.subs + 1 + t.nodes }

func (t ctopo) isStore(id NodeID) bool {
	for _, s := range t.stores {
		if s == id {
			return true
		}
	}
	return false
}

func (t ctopo) isFront(id NodeID) bool {
	for _, f := range t.fronts {
		if f == id {
			return true
		}
	}
	return false
}

// cmode selects the progress clauses asserted on top of the always-on
// checker.
type cmode int

const (
	// cSafety: checker only (fault plans whose liveness premises may not
	// hold within the budget).
	cSafety cmode = iota
	// cFair: fault-free fair schedule — every proc Done, every op answered.
	cFair
	// cFailover: the owner's event loop crashes mid-load; the cluster must
	// still answer every op (via election and client retransmission) and
	// the submitters and driver must finish.
	cFailover
)

// cscenario is one registered cluster scenario.
type cscenario struct {
	name   string
	topo   ctopo
	budget int64
	wl     service.Workload
	mode   cmode
	// crashOwner crashes the event loop of shard 0's initial owner
	// (topo.stores[0]) after a seed-chosen number of its own steps.
	crashOwner bool
	// bug injects a protocol bug where it bites: bugSkipApply on
	// topo.stores[1] (crashOwner lets that follower win the election),
	// bugAckFullWindow on shard 0's initial owner, bugGrantNoPromise on
	// every store node. It inverts the oracle: a run passes only if, when
	// the bug became a client-visible stale read, the checker flagged it
	// (seeds where it did not manifest pass vacuously).
	bug injectedBug
	// raw keeps the normal oracle under bug, so the checker's violations
	// surface as sweep failures — the fixtures proving the checker detects
	// each bug at a healthy rate.
	raw bool
	// inflight/window override the virtual-mode pipelining defaults
	// (Config.MaxInflightEntries / Config.BatchWindow) when non-zero.
	inflight int
	window   int64
	// plan, when set, draws the network fault plan (loss, dup, delay,
	// partitions) from the scenario rng; nil means a reliable unit-delay
	// network.
	plan func(t ctopo, budget int64, rng *rand.Rand) NetPlan
}

// obsNet, when set (tests only), receives every finished run's VirtualNet
// and nodes so fault-exercise tests can prove the plans actually cut and
// drop messages — and that the per-node cluster_frames_dropped_total
// counters account for every one. Called from the oracle; observers must
// be self-synchronizing.
var obsNet func(scenario string, vn *VirtualNet, nodes []*Node)

// crunState is the blackboard between procs and oracle, written under the
// step token.
type crunState struct {
	generated int
	answered  int
	rejected  int
	finished  int
	closedOK  bool
}

func clusterScenarios() []sim.Scenario {
	three := []NodeID{1, 2, 3}
	specs := []cscenario{
		{
			// Single shard, every node both frontend and store: the minimal
			// deployment cmd/served -roles defaults to.
			name: "cluster:smoke", budget: 65536, mode: cFair,
			topo: ctopo{subs: 2, nodes: 3, stores: []NodeID{0, 1, 2}, fronts: []NodeID{0, 1, 2}, shards: 1},
			wl:   service.Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.2, Ops: 5, MaxCall: 1},
		},
		{
			// Dedicated front end, three store nodes, multiple shards with
			// distinct owners; client batches split across shards.
			name: "cluster:shards", budget: 98304, mode: cFair,
			topo: ctopo{subs: 2, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 3},
			wl:   service.Workload{Keys: []string{"a", "b", "c", "d", "e", "f"}, CASFrac: 0.25, Ops: 6, MaxCall: 3},
		},
		{
			// The owner of the only shard dies mid-load: followers elect,
			// front ends retransmit, every op must still be answered exactly
			// once.
			name: "cluster:owner-crash", budget: 131072, mode: cFailover, crashOwner: true,
			topo: ctopo{subs: 2, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 1},
			wl:   service.Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.25, Ops: 5, MaxCall: 1},
		},
		{
			// A seed-chosen store node is cut off for a window mid-run: the
			// majority side keeps serving. The owner's log floor stops
			// waiting for a replica silent past ownerTimeout, so a victim
			// still cut off while entries commit heals behind the floor and
			// stays there, probed but never caught up (no snapshot install
			// yet) — most seeds; otherwise it catches up on heal.
			name: "cluster:partition", budget: 131072, mode: cFair, plan: partitionPlan,
			topo: ctopo{subs: 2, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 1},
			wl:   service.Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.2, Ops: 5, MaxCall: 1},
		},
		{
			// Lossy, duplicating, reordering network: retransmission and the
			// dedup tables must mask all of it.
			name: "cluster:loss", budget: 131072, mode: cFair, plan: lossPlan,
			topo: ctopo{subs: 2, nodes: 3, stores: []NodeID{0, 1, 2}, fronts: []NodeID{0, 1, 2}, shards: 1},
			wl:   service.Workload{Keys: []string{"a", "b"}, CASFrac: 0.2, Ops: 4, MaxCall: 1},
		},
		{
			// Owner crash during loss and duplication: the front end may miss
			// the winner's one owner broadcast, and must still reach it (its
			// hint of the dead owner expires) and answer every op.
			name: "cluster:handoff-crash", budget: 131072, mode: cFailover, crashOwner: true, plan: lossPlan,
			topo: ctopo{subs: 2, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 1},
			wl:   service.Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.25, Ops: 4, MaxCall: 1},
		},
		{
			// Must-detect canary: stale reads after a rigged failover MUST be
			// flagged by the checker (negative control for the whole
			// verification stack).
			name: "cluster:stale-canary", budget: 131072, mode: cSafety, crashOwner: true, bug: bugSkipApply,
			topo: ctopo{subs: 1, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 1},
			wl:   service.Workload{Keys: []string{"k1", "k2"}, HotFrac: 0.5, CASFrac: 0, Ops: 10, MaxCall: 1},
		},
		{
			// Pipelined window + batch window under a fair fault-free
			// schedule: several uncommitted entries in flight per shard,
			// commits in prefix order, every op answered exactly once.
			name: "cluster:batch", budget: 98304, mode: cFair, inflight: 4, window: 64,
			topo: ctopo{subs: 2, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 2},
			wl:   service.Workload{Keys: []string{"a", "b", "c", "d"}, CASFrac: 0.2, Ops: 6, MaxCall: 3},
		},
		{
			// Owner crash with a pipelined window outstanding: every op is
			// re-driven through the new owner (or cleanly failed) without
			// double-apply — op-ID dedup makes the retries idempotent.
			name: "cluster:batch-crash", budget: 131072, mode: cFailover, crashOwner: true,
			inflight: 4, window: 64,
			topo: ctopo{subs: 2, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 1},
			wl:   service.Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.25, Ops: 5, MaxCall: 2},
		},
		{
			// Must-detect canary for the pipelined commit rule: an owner that
			// commits out of window order answers clients before a quorum
			// holds their entries; across a lossy network plus its own crash,
			// the client-visible staleness MUST be flagged.
			name: "cluster:batch-canary", budget: 131072, mode: cSafety,
			crashOwner: true, bug: bugAckFullWindow, plan: batchLossPlan, inflight: 4,
			topo: ctopo{subs: 1, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 1},
			wl:   service.Workload{Keys: []string{"k1", "k2"}, HotFrac: 0.5, CASFrac: 0, Ops: 12, MaxCall: 2},
		},
		{
			// Must-detect canary for the vote promise: a voter that keeps
			// acking the owner it voted out lets that owner answer clients
			// with entries the winner never held; under cuts that elect
			// rivals of a live owner, the lost answers MUST be flagged.
			name: "cluster:vote-canary", budget: 131072, mode: cSafety,
			bug: bugGrantNoPromise, plan: flapPlan,
			topo: ctopo{subs: 1, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 1},
			wl:   service.Workload{Keys: []string{"k1", "k2"}, HotFrac: 0.5, CASFrac: 0, Ops: 12, MaxCall: 1},
		},
	}
	out := make([]sim.Scenario, 0, len(specs))
	for _, sc := range specs {
		out = append(out, sc.scenario())
	}
	return out
}

// partitionPlan cuts one seed-chosen store node off for a mid-run window,
// healed with plenty of budget to spare.
func partitionPlan(t ctopo, _ int64, rng *rand.Rand) NetPlan {
	victim := t.stores[rng.IntN(len(t.stores))]
	// The window must overlap the load phase (runs finish within a few
	// thousand global steps) or the scenario degenerates to fault-free.
	from := 128 + rng.Int64N(1024)
	return NetPlan{
		Seed: rng.Uint64(),
		Partitions: []Partition{{
			From: from, To: from + 1024 + rng.Int64N(3072), GroupA: []NodeID{victim},
		}},
	}
}

// lossPlan draws a lossy, duplicating, reordering network.
func lossPlan(_ ctopo, _ int64, rng *rand.Rand) NetPlan {
	return NetPlan{
		Seed:     rng.Uint64(),
		LossFrac: 0.02 + rng.Float64()*0.10,
		DupFrac:  rng.Float64() * 0.10,
		DelayMax: 1 + rng.Int64N(8),
	}
}

// batchLossPlan is lossPlan with the loss dial turned up, for the
// batch-canary fixtures: the out-of-window-order commit bug manifests
// when a lost append outlives its owner (retransmission is the healer),
// so losses must be frequent enough for that to recur across seeds.
func batchLossPlan(_ ctopo, _ int64, rng *rand.Rand) NetPlan {
	return NetPlan{
		Seed:     rng.Uint64(),
		LossFrac: 0.15 + rng.Float64()*0.20,
		DupFrac:  rng.Float64() * 0.05,
		DelayMax: 1 + rng.Int64N(8),
	}
}

// flapPlan cuts one seed-chosen store node after another off for a little
// longer than ownerTimeout (640 steps), over a slow network, for the
// vote-canary fixtures: an owner that comes back from a cut finds a rival
// elected, and with delays this long its appends reach the rival's voters
// before the rival's own announcement does — the window in which a voter's
// promise is all that stops the deposed owner from committing.
func flapPlan(t ctopo, _ int64, rng *rand.Rand) NetPlan {
	pl := NetPlan{Seed: rng.Uint64(), DelayMax: 256 + rng.Int64N(512)}
	// 40 cuts reach past the end of all but the longest runs (mean 16k steps).
	for at := int64(256); len(pl.Partitions) < 40; {
		to := at + 640 + rng.Int64N(640)
		victim := t.stores[rng.IntN(len(t.stores))]
		pl.Partitions = append(pl.Partitions, Partition{From: at, To: to, GroupA: []NodeID{victim}})
		at = to + 256 + rng.Int64N(1024)
	}
	return pl
}

// nodeCrashGen crashes the victim node's event loop after a seed-chosen
// number of its own steps, over a fair base.
func nodeCrashGen(t ctopo, victim NodeID) sim.Generator {
	return func(n int, _ int64, rng *rand.Rand) sim.Schedule {
		s, mk := sim.DrawFair(n, rng)
		// The node loop takes roughly one own-step per grant while parked, so
		// its own-step clock runs ~1/procs of the global one; this window
		// lands the crash mid-load for the scenario workload sizes.
		at := 20 + rng.Int64N(300)
		plan := map[int]int64{t.nodeProc(int(victim)): at}
		s.CrashPlan = plan
		s.Desc += fmt.Sprintf("+crash{node%d@%d}", victim, at)
		inner := mk
		s.Source = sim.SourceOf(func() sched.Policy { return &sched.CrashAt{Inner: inner(), At: plan} })
		return s
	}
}

func (sc cscenario) scenario() sim.Scenario {
	gen := sim.Generator(sim.FairGen)
	if sc.crashOwner {
		gen = nodeCrashGen(sc.topo, sc.topo.stores[0])
	}
	return sim.System(sc.name, "cluster", sc.topo.procs(), sc.budget, gen, sc.build)
}

func (sc cscenario) build(r *sched.Run, rng *rand.Rand) sim.Oracle {
	t := sc.topo
	var plan NetPlan
	if sc.plan != nil {
		plan = sc.plan(t, sc.budget, rng)
	}
	vn := NewVirtualNet(t.nodes, plan)

	// Replica stores: one single-proc store per (store node, shard).
	var vrs []*service.VirtualRuntime
	nodes := make([]*Node, t.nodes)
	victimStores := []*service.Store(nil)
	next := t.storeBase()
	for i := 0; i < t.nodes; i++ {
		id := NodeID(i)
		var stores []*service.Store
		if t.isStore(id) {
			for s := 0; s < t.shards; s++ {
				vr := service.NewVirtualRuntime(r, next)
				next++
				st := service.NewVirtual(service.Config{
					Shards: 1, WorkersPerShard: 1, QueueDepth: 64, MaxBatch: 16,
					Audit: service.AuditConfig{Disabled: true},
				}, vr)
				vrs = append(vrs, vr)
				stores = append(stores, st)
			}
		}
		n := New(Config{
			ID: id, Nodes: t.nodes, StoreNodes: t.stores, Shards: t.shards,
			Frontend: t.isFront(id), Store: t.isStore(id),
			MaxInflightEntries: sc.inflight, BatchWindow: sc.window,
		}, vn.Endpoint(id), stores)
		n.rec = make([][]wire.RepEntry, t.shards)
		switch {
		case sc.bug == bugSkipApply && id == t.stores[1],
			sc.bug == bugAckFullWindow && id == t.stores[0],
			sc.bug == bugGrantNoPromise:
			n.bug = sc.bug
		}
		if sc.crashOwner && id == t.stores[0] {
			victimStores = stores
		}
		nodes[i] = n
		r.Spawn(t.nodeProc(i), n.Run)
	}

	obs := &obsLog{}
	st := &crunState{}
	for i := 0; i < t.subs; i++ {
		sub := i
		front := nodes[t.fronts[i%len(t.fronts)]]
		calls := sc.wl.GenCalls(i, rng)
		r.Spawn(i, func(p *sched.Proc) { runClusterSubmitter(p, front, obs, st, sub, calls) })
	}

	victim := NodeID(0xFFFF)
	if sc.crashOwner {
		victim = t.stores[0]
	}
	r.Spawn(t.driverID(), func(p *sched.Proc) {
		p.Park(func() bool { return st.finished == t.subs })
		for i, n := range nodes {
			if NodeID(i) == victim {
				// The victim's loop may have been crashed by the schedule:
				// ask it to stop without waiting, and close its replica
				// stores directly so their worker procs drain either way.
				n.closeAsyncOn(p)
				for _, rs := range victimStores {
					rs.CloseOn(p)
				}
				continue
			}
			n.CloseOn(p)
		}
		st.closedOK = true
	})

	return func(res sched.Results, sch sim.Schedule) []string {
		if obsNet != nil {
			obsNet(sc.name, vn, nodes)
		}
		viol := checkRun(nodes, obs, sc.budget+1)
		for _, vr := range vrs {
			viol = append(viol, vr.CheckHistory()...)
		}
		if sc.bug != bugNone && !sc.raw {
			// Inverted verdict: when the injected bug produced a
			// client-visible stale read, the checker MUST have flagged the
			// run. (Seeds where the rigged failover did not manifest pass
			// vacuously.)
			if obs.sawStale && len(viol) == 0 {
				return []string{"canary: client observed a stale read after failover but the checker reported no violation"}
			}
			return nil
		}
		out := viol
		assertLive := func() {
			for id := 0; id <= t.subs; id++ {
				if res.Status[id] != sched.Done {
					out = append(out, fmt.Sprintf(
						"progress violated: p%d is %v (%s)", id, res.Status[id], sch.Desc))
				}
			}
			if !st.closedOK {
				out = append(out, "progress violated: the deployment did not drain and close")
			}
			if st.rejected != 0 || st.answered != st.generated {
				out = append(out, fmt.Sprintf(
					"progress violated: %d/%d ops answered, %d rejected",
					st.answered, st.generated, st.rejected))
			}
		}
		switch sc.mode {
		case cFair:
			if sch.Fair() {
				assertLive()
			}
		case cFailover:
			// The crash is the scenario's point: liveness must hold THROUGH
			// it, so assert completion even though the schedule is unfair.
			assertLive()
		}
		return out
	}
}

// runClusterSubmitter plays one client script against a front end node,
// stamping client-unique op IDs and recording every observation for the
// checker. Ops are recorded before submission (an op whose answer never
// arrives may still commit — the checker accounts for it), and marked
// answered with their results after.
func runClusterSubmitter(p *sched.Proc, front *Node, obs *obsLog, st *crunState, sub int, calls [][]service.Op) {
	seq := uint64(0)
	for _, c := range calls {
		for i := range c {
			seq++
			c[i].ID = uint64(sub+1)<<32 | seq
		}
		st.generated += len(c)
		callAt := p.Now()
		recs := make([]*opObs, len(c))
		for i, op := range c {
			recs[i] = &opObs{sub: sub, op: op, call: callAt}
			obs.obs = append(obs.obs, recs[i])
		}
		res, err := front.DoBatchOn(p, c)
		if err != nil {
			st.rejected += len(c)
			break
		}
		retAt := p.Now()
		for i := range c {
			recs[i].ret, recs[i].res, recs[i].answered = retAt, res[i], true
			obs.trackStale(sub, c[i], res[i])
		}
		st.answered += len(c)
	}
	st.finished++
}
