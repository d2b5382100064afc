package cluster

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wire"
)

// equivalenceScript is the fixed replication script both runtimes play: a
// single sequential client, so each call becomes exactly one log entry and
// the committed chains of the two modes must be identical entry for entry.
// It exercises puts, reads, CAS hits and misses, and an op-ID retry (the
// replay dedup must answer the cached result in both modes).
func equivalenceScript() []service.Op {
	var ops []service.Op
	id := uint64(0)
	add := func(op service.Op) {
		id++
		op.ID = id
		ops = append(ops, op)
	}
	for i := 0; i < 6; i++ {
		add(service.Op{Kind: service.OpPut, Key: fmt.Sprintf("k%d", i%3), Val: fmt.Sprintf("v%d", i)})
	}
	add(service.Op{Kind: service.OpGet, Key: "k0"})
	add(service.Op{Kind: service.OpCAS, Key: "k0", Old: "v3", Val: "cas1"})
	add(service.Op{Kind: service.OpCAS, Key: "k1", Old: "nope", Val: "cas2"})
	add(service.Op{Kind: service.OpGet, Key: "k1"})
	add(service.Op{Kind: service.OpPut, Key: "k2", Val: "final"})
	add(service.Op{Kind: service.OpGet, Key: "k2"})
	// Retry of op 5 under its original ID: dedup must serve the cached
	// result, not re-apply.
	retry := ops[4]
	ops = append(ops, retry)
	return ops
}

// isPrefix reports whether a is a prefix of b (entry by entry: an empty
// chain is nil, which DeepEqual would tell apart from b[:0]).
func isPrefix(a, b []wire.RepEntry) bool {
	return len(a) <= len(b) && slices.EqualFunc(a, b[:len(a)], func(x, y wire.RepEntry) bool {
		return reflect.DeepEqual(x, y)
	})
}

// TestCrossRuntimeEquivalence: the same replication script driven through a
// 3-node cluster in free mode (real TCP, real clocks) and in virtual mode
// (one deterministic sched.Run over the simulated network) must yield
// identical per-op results, identical committed log chains, and clean
// audit verdicts in both runtimes — in the stop-and-wait configuration and
// with the replication window pipelined and batched.
func TestCrossRuntimeEquivalence(t *testing.T) {
	t.Run("stopandwait", func(t *testing.T) {
		testCrossRuntimeEquivalence(t, 1, 0, 0)
	})
	t.Run("pipelined", func(t *testing.T) {
		// The batch window is wall-clock in free mode (2ms ≈ one tick) and
		// steps in virtual mode; the sequential client keeps the committed
		// chains identical either way — what this adds is coverage of the
		// deferred pump, the piggybacked acks and the coalesced flushes.
		testCrossRuntimeEquivalence(t, 4, 2*time.Millisecond.Nanoseconds(), 64)
	})
}

func testCrossRuntimeEquivalence(t *testing.T, inflight int, freeWindow, virtWindow int64) {
	script := equivalenceScript()

	// --- Free mode ---
	// A route resent after routeTimeout is appended a second time (dedup
	// acts at apply), so the free side waits long enough that a loaded
	// machine's slow first commit is not mistaken for a lost route.
	freeNodes := startFreeClusterCfg(t, 3, 1, func(c *Config) {
		c.MaxInflightEntries = inflight
		c.BatchWindow = freeWindow
		c.routeTimeout = time.Second.Nanoseconds()
	})
	waitConnected(t, freeNodes)
	ctx := context.Background()
	freeResults := make([]service.Result, 0, len(script))
	for _, op := range script {
		r, err := freeNodes[1].Do(ctx, op)
		if err != nil {
			t.Fatalf("free mode op %d: %v", op.ID, err)
		}
		freeResults = append(freeResults, r)
	}
	freeAudit := int64(0)
	for _, n := range freeNodes {
		freeAudit += n.Stats().Audit.Violations
	}
	// Followers first: closing the owner (node 0) while they still run lets
	// one of them win an election and append its barrier before its own
	// Close lands, and the prefix check below then sees a 14th entry.
	for i := len(freeNodes) - 1; i >= 0; i-- {
		freeNodes[i].Close()
	}
	freeChain := freeNodes[0].chain(0)

	// --- Virtual mode ---
	const procs = 8 // 2 client/driver + 3 node loops + 3 store procs
	r := sched.NewRun(procs, &sched.RoundRobin{})
	stores := []NodeID{0, 1, 2}
	vn := NewVirtualNet(3, NetPlan{})
	var vrs []*service.VirtualRuntime
	virtNodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		vr := service.NewVirtualRuntime(r, 5+i)
		vrs = append(vrs, vr)
		st := service.NewVirtual(service.Config{
			Shards: 1, WorkersPerShard: 1, QueueDepth: 64, MaxBatch: 16,
			Audit: service.AuditConfig{Disabled: true},
		}, vr)
		n := New(Config{
			ID: NodeID(i), Nodes: 3, StoreNodes: stores, Shards: 1,
			Frontend: true, Store: true,
			MaxInflightEntries: inflight, BatchWindow: virtWindow,
		}, vn.Endpoint(NodeID(i)), []*service.Store{st})
		n.rec = make([][]wire.RepEntry, 1)
		virtNodes[i] = n
		r.Spawn(2+i, n.Run)
	}
	virtResults := make([]service.Result, 0, len(script))
	finished := false
	r.Spawn(0, func(p *sched.Proc) {
		for _, op := range script {
			res, err := virtNodes[1].DoBatchOn(p, []service.Op{op})
			if err != nil {
				t.Errorf("virtual mode op %d: %v", op.ID, err)
				break
			}
			virtResults = append(virtResults, res[0])
		}
		finished = true
	})
	r.Spawn(1, func(p *sched.Proc) {
		p.Park(func() bool { return finished })
		for _, n := range virtNodes {
			n.CloseOn(p)
		}
	})
	res := r.Execute(1 << 20)
	for id, s := range res.Status {
		if s != sched.Done {
			t.Fatalf("virtual proc %d ended %v", id, s)
		}
	}
	virtChain := virtNodes[0].chain(0)
	obs := &obsLog{}
	if viol := checkRun(virtNodes, obs, res.TotalSteps+1); len(viol) != 0 {
		t.Fatalf("virtual checker violations: %v", viol)
	}
	virtAudit := 0
	for _, vr := range vrs {
		virtAudit += len(vr.CheckHistory())
	}

	// --- Equivalence ---
	if !reflect.DeepEqual(freeResults, virtResults) {
		t.Fatalf("per-op results differ across runtimes:\nfree:    %+v\nvirtual: %+v", freeResults, virtResults)
	}
	if !reflect.DeepEqual(freeChain, virtChain) {
		t.Fatalf("committed chains differ across runtimes:\nfree:    %+v\nvirtual: %+v", freeChain, virtChain)
	}
	if freeAudit != 0 || virtAudit != 0 {
		t.Fatalf("audit verdicts differ from clean: free=%d virtual=%d", freeAudit, virtAudit)
	}
	// Sanity: the dedup retry really was deduplicated (same result as the
	// original op, and only one occurrence of the ID in the chain effects).
	if freeResults[len(freeResults)-1] != freeResults[4] {
		t.Fatalf("retry result %+v differs from original %+v", freeResults[len(freeResults)-1], freeResults[4])
	}
	// Replica logs agree with the owner's in both runtimes — each must be a
	// prefix (the slowest follower may legitimately lag the final entries
	// at shutdown, but never diverge).
	for i := 1; i < 3; i++ {
		if got := freeNodes[i].chain(0); !isPrefix(got, freeChain) {
			t.Fatalf("free replica %d chain diverges from owner:\n%+v\n%+v", i, got, freeChain)
		}
		if got := virtNodes[i].chain(0); !isPrefix(got, virtChain) {
			t.Fatalf("virtual replica %d chain diverges from owner:\n%+v\n%+v", i, got, virtChain)
		}
	}
}

// connected reports whether the peer's link is up.
func (p *freePeer) connected() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn != nil
}

// waitConnected blocks until every free node holds a connection to every
// peer. A frame sent before that is dropped, and a dropped RepDone makes
// the front end resend its route after routeTimeout: the owner, which had
// already answered, appends the op a second time (dedup acts at apply), so
// the free chain gains an entry the virtual one lacks.
func waitConnected(t *testing.T, nodes []*Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range nodes {
		for _, p := range n.tr.(*FreeTransport).peers {
			for p.id != n.cfg.ID && !p.connected() {
				if time.Now().After(deadline) {
					t.Fatalf("node %d never connected to node %d", n.cfg.ID, p.id)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
