package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// listenPorts binds n loopback listeners on distinct ephemeral ports and
// returns them with their addresses. They stay bound until a transport
// takes them over (newFreeTransport) or the test ends, so no port is ever
// released and re-bound: binding then releasing races other processes for
// the port ("bind: address already in use").
func listenPorts(t testing.TB, n int) ([]net.Listener, []string) {
	t.Helper()
	lis := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		lis[i], addrs[i] = l, l.Addr().String()
	}
	return lis, addrs
}

// testFreeConfig shortens the free transport's redial so a test cluster
// connects in milliseconds.
func testFreeConfig() FreeConfig {
	return FreeConfig{dialBackoff: 5 * time.Millisecond, dialTimeout: 100 * time.Millisecond}
}

// freeNodeConfig shortens the free-mode failure detectors so the tests
// converge in milliseconds instead of the production defaults.
func freeNodeConfig(id NodeID, nodes int, stores []NodeID, shards int) Config {
	return Config{
		ID: id, Nodes: nodes, StoreNodes: stores, Shards: shards,
		Frontend: true, Store: true,
		timing: timing{
			tickEvery:       2 * time.Millisecond.Nanoseconds(),
			heartbeatEvery:  5 * time.Millisecond.Nanoseconds(),
			ownerTimeout:    40 * time.Millisecond.Nanoseconds(),
			electionStagger: 20 * time.Millisecond.Nanoseconds(),
			electionBackoff: 80 * time.Millisecond.Nanoseconds(),
			routeTimeout:    25 * time.Millisecond.Nanoseconds(),
			retransmitEvery: 15 * time.Millisecond.Nanoseconds(),
		},
	}
}

// startFreeCluster brings up a full free-mode cluster on loopback TCP:
// every node both frontend and store, real stores, real RPW1 transports.
// The returned nodes are running; callers own shutdown. Under a test (not
// a benchmark, which measures the production configuration) every node
// records its applied entries, so Node.chain can read its whole log once
// the node is closed.
func startFreeCluster(t testing.TB, nodes, shards int) []*Node {
	return startFreeClusterCfg(t, nodes, shards, nil)
}

// startFreeClusterCfg is startFreeCluster with a per-node Config hook (run
// after the test defaults, before New) for tests that tune the replication
// window or batch timings.
func startFreeClusterCfg(t testing.TB, nodes, shards int, mod func(*Config)) []*Node {
	t.Helper()
	lis, addrs := listenPorts(t, nodes)
	stores := make([]NodeID, nodes)
	for i := range stores {
		stores[i] = NodeID(i)
	}
	out := make([]*Node, nodes)
	for i := 0; i < nodes; i++ {
		ft := newFreeTransport(NodeID(i), lis[i], addrs, testFreeConfig())
		reps := make([]*service.Store, shards)
		for s := range reps {
			reps[s] = service.New(service.Config{
				Shards: 1, WorkersPerShard: 1, QueueDepth: 64, MaxBatch: 16,
			})
		}
		cfg := freeNodeConfig(NodeID(i), nodes, stores, shards)
		if mod != nil {
			mod(&cfg)
		}
		n := New(cfg, ft, reps)
		if _, test := t.(*testing.T); test {
			n.rec = make([][]wire.RepEntry, shards)
		}
		go n.Run(nil)
		out[i] = n
	}
	return out
}

// TestFreeClusterReplicates: a 3-node free cluster answers routed ops from
// any front end, replicates them to a quorum, and reports consistent
// status, stats and metrics.
func TestFreeClusterReplicates(t *testing.T) {
	nodes := startFreeCluster(t, 3, 2)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Every node serves as front end; ops fan over both shards.
	id := uint64(1)
	for i := 0; i < 30; i++ {
		n := nodes[i%3]
		key := fmt.Sprintf("k%d", i%7)
		if _, err := n.Do(ctx, service.Op{Kind: service.OpPut, Key: key, Val: fmt.Sprintf("v%d", i), ID: id}); err != nil {
			t.Fatalf("put %d via node %d: %v", i, i%3, err)
		}
		id++
	}
	var batch []service.Op
	for i := 0; i < 7; i++ {
		batch = append(batch, service.Op{Kind: service.OpGet, Key: fmt.Sprintf("k%d", i), ID: id})
		id++
	}
	res, err := nodes[1].DoBatch(ctx, batch)
	if err != nil {
		t.Fatalf("batch get: %v", err)
	}
	for i, r := range res {
		// Last writer of key k_i is the largest op index < 30 congruent to
		// i mod 7.
		last := 21 + i
		if i < 2 {
			last = 28 + i
		}
		want := fmt.Sprintf("v%d", last)
		if !r.OK || r.Val != want {
			t.Fatalf("k%d = %+v, want %q", i, r, want)
		}
	}
	if r, err := nodes[2].Do(ctx, service.Op{Kind: service.OpCAS, Key: "k0", Old: "v28", Val: "swapped", ID: id}); err != nil || !r.OK {
		t.Fatalf("cas: %+v %v", r, err)
	}

	st := nodes[0].Status()
	if !st.Frontend || !st.Store || len(st.Shards) != 2 {
		t.Fatalf("status: %+v", st)
	}
	if owned := st.OwnedShards(); owned != 1 {
		t.Fatalf("node 0 owns %v, want exactly one shard under the rotated preference", owned)
	}
	stats := nodes[0].Stats()
	if stats.TotalOps == 0 {
		t.Fatalf("stats: no ops applied on node 0: %+v", stats)
	}
	if nodes[0].Metrics() == nil {
		t.Fatal("nil metrics registry")
	}
	for s := 0; s < 2; s++ {
		sh := nodes[0].ShardState(s)
		if sh.Epoch != 1 {
			t.Fatalf("shard %d state: %+v", s, sh)
		}
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := nodes[0].Close(); err != service.ErrClosed {
		t.Fatalf("second close: %v, want ErrClosed", err)
	}
	if _, err := nodes[0].Do(ctx, service.Op{Kind: service.OpGet, Key: "k0"}); err != service.ErrClosed {
		t.Fatalf("do after close: %v, want ErrClosed", err)
	}
}

// TestFreeClusterFailover: killing the owner of shard 0 mid-load must be
// survived — failed writes on its links report the peer down, a follower
// wins the election, the front ends re-route, and every subsequent op is
// answered.
func TestFreeClusterFailover(t *testing.T) {
	nodes := startFreeCluster(t, 3, 1)
	closed := make([]bool, 3)
	defer func() {
		for i, n := range nodes {
			if !closed[i] {
				n.Close()
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < 10; i++ {
		if _, err := nodes[1].Do(ctx, service.Op{Kind: service.OpPut, Key: "k", Val: fmt.Sprintf("v%d", i), ID: uint64(i + 1)}); err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}
	// Node 0 owns shard 0 (preference order). Kill it.
	if nodes[0].ShardState(0).IsOwner != true {
		t.Fatal("node 0 does not own shard 0 at start")
	}
	nodes[0].Close()
	closed[0] = true

	// Ops through the survivors must be answered after failover; DoBatch
	// blocks through the election, so a single call suffices — but drive a
	// few to exercise the re-routing on both survivors.
	for i := 0; i < 6; i++ {
		r, err := nodes[1+i%2].Do(ctx, service.Op{Kind: service.OpPut, Key: "k", Val: fmt.Sprintf("post%d", i), ID: uint64(100 + i)})
		if err != nil {
			t.Fatalf("post-failover put %d: %v", i, err)
		}
		if !r.OK {
			t.Fatalf("post-failover put %d: %+v", i, r)
		}
	}
	r, err := nodes[2].Do(ctx, service.Op{Kind: service.OpGet, Key: "k", ID: 200})
	if err != nil || !r.OK || r.Val != "post5" {
		t.Fatalf("post-failover get: %+v %v", r, err)
	}
	failovers := int64(0)
	for _, n := range nodes[1:] {
		failovers += n.Status().Failovers
	}
	if failovers == 0 {
		t.Fatal("no survivor reports a won election")
	}
	owner := nodes[1].Status().Shards[0].Owner
	if owner == 0 {
		t.Fatalf("shard 0 still owned by the dead node")
	}
	// The audit verdict across the survivors must be clean.
	for i, n := range nodes[1:] {
		if st := n.Stats(); st.Audit.Violations != 0 {
			t.Fatalf("node %d audit violations: %+v", i+1, st.Audit)
		}
	}
}

// TestFrameByteBudgets pins the budget chain against the wire encoders:
// the hand-written entry overhead must match the real encoding, and a
// maximally-sized route must survive the whole pipeline — route frame,
// single-route log entry, single-entry append frame — without tripping
// AppendRepFrame's MaxPayload refusal.
func TestFrameByteBudgets(t *testing.T) {
	if got := wire.EncodedEntrySize(wire.RepEntry{}); got != entryOverheadBytes {
		t.Fatalf("entryOverheadBytes = %d, wire encodes %d", entryOverheadBytes, got)
	}
	// Build ops right at the route budget.
	val := strings.Repeat("x", 60<<10)
	var ops []service.Op
	bytes := 0
	for id := uint64(1); ; id++ {
		op := service.Op{Kind: service.OpPut, Key: "k", Val: val, ID: id}
		if sz := wire.EncodedOpSize(op); bytes+sz > maxRouteBytes {
			break
		} else {
			bytes += sz
		}
		ops = append(ops, op)
	}
	if len(ops) < 2 {
		t.Fatalf("budget admits only %d large ops", len(ops))
	}
	if _, err := wire.AppendRepFrame(nil, wire.OpcodeRepRoute, &wire.Rep{Ops: ops}); err != nil {
		t.Fatalf("budget-bounded route frame refused: %v", err)
	}
	entry := wire.RepEntry{Seq: 1, Epoch: 1, Ops: ops}
	if wire.EncodedEntrySize(entry) > maxChunkBytes {
		t.Fatal("a route at maxRouteBytes does not fit one append chunk")
	}
	if _, err := wire.AppendRepFrame(nil, wire.OpcodeRepAppend, &wire.Rep{Entries: []wire.RepEntry{entry}}); err != nil {
		t.Fatalf("budget-bounded append frame refused: %v", err)
	}
}

// TestFreeClusterLargePayloads: client batches and read results far larger
// than one wire frame (MaxPayload = 1 MiB) must still commit and answer —
// the front end splits routes by encoded size, the owner byte-bounds log
// entries and append chunks, and oversized answers come back as result
// chunks. Before byte bounding, the first oversized frame wedged its route
// (ErrBadFrame retried identically forever) and this test hung.
func TestFreeClusterLargePayloads(t *testing.T) {
	nodes := startFreeCluster(t, 3, 1)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// ~1.5 MiB of puts in ONE client batch: must split into multiple routes
	// and replicate across several append frames.
	const keys = 25
	val := strings.Repeat("v", 60<<10)
	var puts []service.Op
	for i := 0; i < keys; i++ {
		puts = append(puts, service.Op{
			Kind: service.OpPut, Key: fmt.Sprintf("big%d", i), Val: val + fmt.Sprint(i), ID: uint64(i + 1),
		})
	}
	res, err := nodes[0].DoBatch(ctx, puts)
	if err != nil {
		t.Fatalf("oversized put batch: %v", err)
	}
	for i, r := range res {
		if !r.OK {
			t.Fatalf("put %d not OK: %+v", i, r)
		}
	}

	// ~1.5 MiB of results from one batch of tiny gets: the answer cannot fit
	// one RepDone frame, so it must arrive chunked and reassemble in order.
	var gets []service.Op
	for i := 0; i < keys; i++ {
		gets = append(gets, service.Op{Kind: service.OpGet, Key: fmt.Sprintf("big%d", i), ID: uint64(100 + i)})
	}
	res, err = nodes[1].DoBatch(ctx, gets)
	if err != nil {
		t.Fatalf("oversized get batch: %v", err)
	}
	for i, r := range res {
		if !r.OK || r.Val != val+fmt.Sprint(i) {
			t.Fatalf("get big%d: OK=%v len=%d, want %d", i, r.OK, len(r.Val), len(val)+1)
		}
	}

	// Replication really crossed the wire: a quorum holds the data, so the
	// shard keeps answering after the original owner dies.
	owner := int(nodes[0].Status().Shards[0].Owner)
	nodes[owner].Close()
	survivor := (owner + 1) % 3
	r, err := nodes[survivor].Do(ctx, service.Op{Kind: service.OpGet, Key: "big7", ID: 900})
	if err != nil || !r.OK || r.Val != val+"7" {
		t.Fatalf("post-failover big get: err=%v OK=%v len=%d", err, r.OK, len(r.Val))
	}
}

// TestFreeClusterCloseDuringLoad: Close racing concurrent DoBatch calls
// must strand nobody — a call that slips its inject past the closed check
// is either drained and failed with ErrClosed by the shutting-down loop or
// refused at inject time; a deadline-free caller previously could block on
// its done channel forever.
func TestFreeClusterCloseDuringLoad(t *testing.T) {
	for round := 0; round < 3; round++ {
		nodes := startFreeCluster(t, 1, 1)
		n := nodes[0]
		const callers = 8
		done := make(chan struct{}, callers)
		for c := 0; c < callers; c++ {
			go func(c int) {
				defer func() { done <- struct{}{} }()
				for i := 0; ; i++ {
					// No deadline on purpose: a stranded call would hang here.
					_, err := n.DoBatch(context.Background(), []service.Op{{
						Kind: service.OpPut, Key: fmt.Sprintf("k%d", c),
						Val: "v", ID: uint64(round+1)<<32 | uint64(c)<<16 | uint64(i+1),
					}})
					if err != nil {
						if err != service.ErrClosed {
							t.Errorf("caller %d: %v, want ErrClosed", c, err)
						}
						return
					}
				}
			}(c)
		}
		time.Sleep(20 * time.Millisecond)
		n.Close()
		for c := 0; c < callers; c++ {
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("round %d: caller stranded after Close", round)
			}
		}
	}
}
