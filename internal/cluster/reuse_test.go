package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// keyOnShard returns a key that hashes to shard s of shards.
func keyOnShard(s, shards int) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("k%d", i); service.ShardIndex(k, shards) == s {
			return k
		}
	}
}

// TestClusterRoundTripAllocBudget pins the heap objects of one Node.Do on a
// free 3-node cluster, counted process-wide: the front end's call, the
// route and done frames both ways, the owner's pipeline, the followers'
// appends and acks, and every replica's store apply. The frames, calls and
// pipeline reuse their memory, and so do the stores' submissions and
// batches, so what remains is the slice of results each of the three
// replicas' stores returns from DoBatch: 3 objects on either shard. Each
// budget is two above, as before: on a machine busy with other processes a
// run read 5. Under -race it reads 4, because a race build's sync.Pool
// drops a random quarter of the submissions put back. Before the stores
// recycled, each apply cost four objects, 12 in all; before the cluster's
// reuse, the same harness measured 50–51 objects on a shard node 0 owns
// and 57–58 on a shard a peer owns.
func TestClusterRoundTripAllocBudget(t *testing.T) {
	nodes := startFreeCluster(t, 3, 2)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	waitConnected(t, nodes)
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		shard  int
		budget float64
	}{
		{"own-shard", 0, 5},  // node 0 owns shard 0
		{"peer-shard", 1, 5}, // node 1 owns shard 1
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := service.Op{Kind: service.OpPut, Key: keyOnShard(tc.shard, 2), Val: "value"}
			do := func() {
				if res, err := nodes[0].Do(ctx, op); err != nil || !res.OK {
					t.Fatalf("put: %+v, %v", res, err)
				}
			}
			for i := 0; i < 100; i++ {
				do() // warm the pools, the arenas and the stores
			}
			if avg := testing.AllocsPerRun(1000, do); avg > tc.budget {
				t.Fatalf("Do allocates %.2f objects per call, budget %.0f", avg, tc.budget)
			} else {
				t.Logf("Do allocates %.2f objects per call (budget %.0f)", avg, tc.budget)
			}
		})
	}
}

// TestRecycledFramesNotRetained: the free transport decodes every inbound
// frame into a recycled message and payload buffer, and a front end reuses
// its call records, so anything kept without copying would change under
// its holder when later traffic reuses the memory. Four writers, two on
// each of two front ends, write distinct values of varying length while
// reading back what they wrote; every answered get, and every op in every
// node's log, must hold exactly the bytes that were written.
func TestRecycledFramesNotRetained(t *testing.T) {
	const shards, writers, keysPer = 3, 4, 100
	nodes := startFreeCluster(t, 3, shards)
	waitConnected(t, nodes)
	key := func(w, i int) string { return fmt.Sprintf("w%d-key%d", w, i) }
	value := func(w, i int) string {
		return key(w, i) + "=" + strings.Repeat(string(rune('a'+i%26)), i%40)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type answer struct {
		w, i int
		val  string
	}
	answers := make([][]answer, writers) // per writer, every get's answer
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := nodes[1+w%2]
			for i := 0; i < keysPer; i++ {
				if res, err := n.Do(ctx, service.Op{Kind: service.OpPut, Key: key(w, i), Val: value(w, i)}); err != nil || !res.OK {
					t.Errorf("put %s: %+v, %v", key(w, i), res, err)
					return
				}
				// Read back this key and an older one in one batch: their
				// answers share a frame with other values.
				j := i / 2
				res, err := n.DoBatch(ctx, []service.Op{
					{Kind: service.OpGet, Key: key(w, i)}, {Kind: service.OpGet, Key: key(w, j)},
				})
				if err != nil {
					t.Errorf("get %s, %s: %v", key(w, i), key(w, j), err)
					return
				}
				if res[0].Val != value(w, i) || res[1].Val != value(w, j) {
					t.Errorf("read back %q, %q; want %q, %q", res[0].Val, res[1].Val, value(w, i), value(w, j))
					return
				}
				answers[w] = append(answers[w], answer{w, i, res[0].Val}, answer{w, j, res[1].Val})
			}
		}()
	}
	wg.Wait()
	// The answered values are the clients': the traffic that came after
	// them must not have rewritten a byte.
	for _, as := range answers {
		for _, a := range as {
			if a.val != value(a.w, a.i) {
				t.Fatalf("the answer for %s changed to %q after it was returned", key(a.w, a.i), a.val)
			}
		}
	}
	for _, n := range nodes {
		n.Close()
	}
	written := 0
	for i, n := range nodes {
		for s := 0; s < shards; s++ {
			for _, e := range n.chain(s) {
				for _, op := range e.Ops {
					if op.Kind != service.OpPut {
						continue
					}
					var w, k int
					if _, err := fmt.Sscanf(op.Key, "w%d-key%d", &w, &k); err != nil || op.Val != value(w, k) {
						t.Fatalf("node %d shard %d entry %d holds put %q = %q", i, s, e.Seq, op.Key, op.Val)
					}
					written++
				}
			}
		}
	}
	if want := 2 * writers * keysPer; written < want { // every put reaches a quorum of two logs
		t.Fatalf("only %d puts in the nodes' logs, want at least %d", written, want)
	}
}

// TestAbandonedClusterCallNeverReused: a Node.Do whose context expires
// leaves its call routed, so the loop may still answer it. That call is
// never handed to a later caller: its late answer lands in it alone, and
// the next call waits for and reads its own result.
func TestAbandonedClusterCallNeverReused(t *testing.T) {
	// Node 0 is a front end only; the shard's one store node, node 1, is a
	// listener nobody serves, so routes are never answered but by the test.
	lis, addrs := listenPorts(t, 2)
	ft := newFreeTransport(0, lis[0], addrs, FreeConfig{})
	cfg := freeNodeConfig(0, 2, []NodeID{1}, 1)
	cfg.Store = false
	cfg.routeTimeout = time.Hour.Nanoseconds()
	n := New(cfg, ft, nil)
	go n.Run(nil)
	defer n.Close()
	answer := func(nth uint64, val string) {
		ft.in.push(&message{kind: wire.OpcodeRepDone, rep: wire.Rep{
			From: 1, ReqID: 1<<48 | nth, Frontier: 1, Results: []service.Result{{OK: true, Val: val}},
		}})
	}
	waitPending := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for n.Status().PendingRoutes != want {
			if time.Now().After(deadline) {
				t.Fatalf("pending routes: %d, want %d", n.Status().PendingRoutes, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	op := service.Op{Kind: service.OpGet, Key: "k"}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := n.Do(ctx, op); !errors.Is(err, service.ErrDeadline) {
		t.Fatalf("unanswered call: %v, want ErrDeadline", err)
	}
	n.cmu.Lock()
	kept := len(n.calls)
	n.cmu.Unlock()
	if kept != 0 {
		t.Fatal("the abandoned call was put back for reuse")
	}
	waitPending(1)
	answer(1, "stale") // the abandoned call's late answer
	waitPending(0)

	type result struct {
		res service.Result
		err error
	}
	resc := make(chan result, 1)
	go func() {
		res, err := n.Do(context.Background(), op)
		resc <- result{res, err}
	}()
	waitPending(1)
	select {
	case r := <-resc:
		t.Fatalf("call returned %+v, %v before its answer was sent", r.res, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	answer(2, "fresh")
	if r := <-resc; r.err != nil || r.res.Val != "fresh" {
		t.Fatalf("call after an abandoned one: %+v, %v, want fresh", r.res, r.err)
	}
}
