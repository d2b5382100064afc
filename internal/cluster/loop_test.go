package cluster

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestSendPathNeverWaitsOnDial: with one peer black-holed (every dial to it
// hangs), the event loop must keep answering clients at full speed — sends
// toward the dead peer are buffered and dropped at flush, and connection
// building happens on the pinger's goroutine, never on the send path. The
// old transport dialed synchronously under the peer mutex on first send,
// stalling every recv/tick for a full DialBackoff round.
func TestSendPathNeverWaitsOnDial(t *testing.T) {
	lis, addrs := listenPorts(t, 2)
	const hang = 300 * time.Millisecond
	var attempts atomic.Int64
	ft := newFreeTransport(0, lis[0], addrs, FreeConfig{
		PingEvery:   2 * time.Millisecond,
		DialBackoff: 2 * time.Millisecond,
		DialTimeout: hang,
		dialFn: func(string, time.Duration) (net.Conn, error) {
			attempts.Add(1)
			time.Sleep(hang)
			return nil, errors.New("black hole")
		},
	})
	st := service.New(service.Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 64, MaxBatch: 16})
	// Node 0 is sole store (quorum 1) and front end; node 1 exists only as
	// the unreachable peer the heartbeats keep trying to reach.
	cfg := freeNodeConfig(0, 2, []NodeID{0}, 1)
	n := New(cfg, ft, []*service.Store{st})
	go n.Run(nil)
	defer n.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	deadline := time.Now().Add(3 * hang)
	var worst time.Duration
	for id := uint64(1); time.Now().Before(deadline); id++ {
		start := time.Now()
		if _, err := n.Do(ctx, service.Op{Kind: service.OpPut, Key: "k", Val: "v", ID: id}); err != nil {
			t.Fatalf("op %d: %v", id, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	// Non-vacuity: the dialer really was hanging throughout the run, and
	// frames toward the dead peer really were dropped rather than queued
	// behind the dial.
	if got := attempts.Load(); got < 2 {
		t.Fatalf("only %d dial attempts; the black-holed peer was never probed", got)
	}
	if n.drops.value(dropNoConn) == 0 {
		t.Fatal("no frames dropped for the connectionless peer; sends are not flowing through flush")
	}
	if worst >= hang/2 {
		t.Fatalf("an op took %v while dials hang for %v — the event loop waited on the network", worst, hang)
	}
}

// TestTickAllocationFree pins the steady-state cost of the event loop's
// timer pass: a tick where nothing is due — heartbeat not owed, no
// retransmission, pending routes all inside RouteTimeout — must not
// allocate. The route scan previously rebuilt and sorted the full id slice
// every tick; it now reuses a scratch buffer and sorts only timed-out ids.
func TestTickAllocationFree(t *testing.T) {
	ft, err := NewFreeTransport(0, []string{"127.0.0.1:0"}, FreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.close()
	st := service.New(service.Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 64, MaxBatch: 16})
	cfg := Config{
		ID: 0, Nodes: 1, StoreNodes: []NodeID{0}, Shards: 1,
		Frontend: true, Store: true,
		// Push every timer past the horizon so the measured ticks take the
		// nothing-due path.
		HeartbeatEvery: 1 << 62, RetransmitEvery: 1 << 62, RouteTimeout: 1 << 62,
	}
	n := New(cfg, ft, []*service.Store{st})
	now := time.Now().UnixNano()
	for id := uint64(1); id <= 8; id++ {
		n.fe.routes[id] = &route{sentAt: now}
	}
	avg := testing.AllocsPerRun(200, func() { n.tick(nil) })
	if avg != 0 {
		t.Fatalf("tick allocates %.1f objects per call with %d pending routes, want 0", avg, len(n.fe.routes))
	}
}
