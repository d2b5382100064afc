package cluster

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wire"
)

// virtualTrio spawns a 3-node cluster (every node front end and store, one
// shard owned by node 0) on r: node loops are procs 2–4, their stores 5–7,
// procs 0 and 1 are left to the test. mod, when set, edits each node's
// Config before New.
func virtualTrio(r *sched.Run, plan NetPlan, mod func(*Config)) []*Node {
	stores := []NodeID{0, 1, 2}
	vn := NewVirtualNet(3, plan)
	nodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		vr := service.NewVirtualRuntime(r, 5+i)
		st := service.NewVirtual(service.Config{
			Shards: 1, WorkersPerShard: 1, QueueDepth: 64, MaxBatch: 16,
			Audit: service.AuditConfig{Disabled: true},
		}, vr)
		cfg := Config{
			ID: NodeID(i), Nodes: 3, StoreNodes: stores, Shards: 1,
			Frontend: true, Store: true,
		}
		if mod != nil {
			mod(&cfg)
		}
		nodes[i] = New(cfg, vn.Endpoint(NodeID(i)), []*service.Store{st})
		nodes[i].rec = make([][]wire.RepEntry, 1)
		r.Spawn(2+i, nodes[i].Run)
	}
	return nodes
}

const trioProcs = 8 // submitter, driver, 3 node loops, 3 store procs

// TestRedirectReroutesStaleFrontend: a front end whose owner hint is stale
// routes to a non-owner store node, which must answer with RepRedirect
// naming the owner it believes in; the front end re-aims the pending route
// and the op still completes — counted in Status().Redirects.
func TestRedirectReroutesStaleFrontend(t *testing.T) {
	r := sched.NewRun(trioProcs, &sched.RoundRobin{})
	nodes := virtualTrio(r, NetPlan{}, nil)
	finished := false
	r.Spawn(0, func(p *sched.Proc) {
		if _, err := nodes[0].DoBatchOn(p, []service.Op{{Kind: service.OpPut, Key: "k", Val: "v1", ID: 1}}); err != nil {
			t.Errorf("eager put: %v", err)
		}
		// Stale the front end's owner hint: shard 0 is owned by node 0, but
		// the front end now believes node 2 owns it. Mutating loop-owned
		// state is safe here — every proc of a controlled run holds the step
		// token exclusively.
		nodes[0].fe.owners[0] = 2
		res, err := nodes[0].DoBatchOn(p, []service.Op{{Kind: service.OpGet, Key: "k", ID: 2}})
		if err != nil {
			t.Errorf("redirected get: %v", err)
		} else if !res[0].OK || res[0].Val != "v1" {
			t.Errorf("redirected get = %+v, want v1", res[0])
		}
		finished = true
	})
	r.Spawn(1, func(p *sched.Proc) {
		p.Park(func() bool { return finished })
		for _, n := range nodes {
			n.CloseOn(p)
		}
	})
	res := r.Execute(1 << 20)
	for id, s := range res.Status {
		if s != sched.Done {
			t.Fatalf("proc %d ended %v", id, s)
		}
	}
	if got := nodes[0].Status().Redirects; got == 0 {
		t.Fatal("front end reports no redirects")
	}
	if nodes[2].Status().Shards[0].Owner != 0 {
		t.Fatalf("node 2 owner hint corrupted: %+v", nodes[2].Status().Shards[0])
	}
}

// TestLaggingFollowerSurvivesFailover: a follower cut off while entries
// commit on the other two replicas must be caught up by whichever of them
// wins the election after the owner dies. Followers that cut their log at
// their own committed frontier leave the new owner nothing to stream, and
// the shard never reaches quorum again: node 2 stays at frontier 0 and the
// get starves.
func TestLaggingFollowerSurvivesFailover(t *testing.T) {
	r := sched.NewRun(trioProcs, &sched.RoundRobin{})
	const ownerTimeout = 1024
	cut := Partition{From: 0, To: ownerTimeout - 64, GroupA: []NodeID{2}}
	nodes := virtualTrio(r, NetPlan{Partitions: []Partition{cut}}, func(c *Config) {
		c.timing = virtualTiming
		c.ownerTimeout = ownerTimeout
	})
	caughtUp := false
	r.Spawn(0, func(p *sched.Proc) {
		for i := 1; i <= 6; i++ {
			if _, err := nodes[1].DoBatchOn(p, []service.Op{{Kind: service.OpPut, Key: "k", Val: fmt.Sprint("v", i), ID: uint64(i)}}); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
		if now := p.Now(); now >= cut.To {
			t.Errorf("puts took %d steps, past the partition's end", now)
		}
		if f := nodes[2].ShardState(0).Frontier; f != 0 {
			t.Errorf("node 2 reached frontier %d through the partition", f)
		}
		nodes[0].CloseOn(p)
		res, err := nodes[1].DoBatchOn(p, []service.Op{{Kind: service.OpGet, Key: "k", ID: 7}})
		if err != nil || !res[0].OK || res[0].Val != "v6" {
			t.Errorf("get after failover = %+v, %v; want v6", res, err)
		}
		p.Park(func() bool {
			return nodes[2].ShardState(0).Frontier >= nodes[1].ShardState(0).Frontier
		})
		caughtUp = true
	})
	r.Spawn(1, func(p *sched.Proc) {
		p.Park(func() bool { return caughtUp })
		nodes[1].CloseOn(p)
		nodes[2].CloseOn(p)
	})
	res := r.Execute(1 << 18)
	for id, s := range res.Status {
		if s != sched.Done {
			t.Errorf("proc %d ended %v (node 1 %+v, node 2 %+v)", id, s, nodes[1].ShardState(0), nodes[2].ShardState(0))
		}
	}
}

// TestOwnerHintsRangeChecked: every frame that names a shard's owner is
// input from outside the process; a node id beyond the deployment (or, in
// a fence, this node's own) must leave the owner hints alone.
func TestOwnerHintsRangeChecked(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind byte
		peer uint16
	}{
		{"redirect", wire.OpcodeRepRedirect, 9},
		{"owner", wire.OpcodeRepOwner, 9},
		{"stale", wire.OpcodeRepStale, 9},
		{"stale naming self", wire.OpcodeRepStale, 0},
	} {
		r := sched.NewRun(trioProcs, &sched.RoundRobin{})
		n := virtualTrio(r, NetPlan{}, nil)[0]
		r.Spawn(0, func(p *sched.Proc) {
			n.handle(p, &message{kind: tc.kind, rep: wire.Rep{From: 1, Epoch: 5, Peer: tc.peer}})
		})
		r.Execute(64)
		if sr := n.shards[0]; n.fe.owners[0] != 0 || sr.owner != 0 || sr.epoch != 1 || sr.own == nil {
			t.Errorf("%s frame naming node %d: hint %d, replica %+v", tc.name, tc.peer, n.fe.owners[0], n.ShardState(0))
		}
	}
}
