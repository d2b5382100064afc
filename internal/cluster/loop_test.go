package cluster

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wire"
)

// TestSendPathNeverWaitsOnDial: with one peer black-holed (every dial to it
// hangs), the event loop must keep answering clients at full speed — sends
// toward the dead peer are buffered and dropped at flush, and connection
// building happens on the dialer's goroutine, never on the send path. The
// old transport dialed synchronously under the peer mutex on first send,
// stalling every recv/tick for a full dialBackoff round.
func TestSendPathNeverWaitsOnDial(t *testing.T) {
	lis, addrs := listenPorts(t, 2)
	const hang = 300 * time.Millisecond
	var attempts atomic.Int64
	ft := newFreeTransport(0, lis[0], addrs, FreeConfig{
		dialBackoff: 2 * time.Millisecond,
		dialTimeout: hang,
		dialFn: func(string, time.Duration) (net.Conn, error) {
			attempts.Add(1)
			time.Sleep(hang)
			return nil, errors.New("black hole")
		},
	})
	st := testStore()
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
// retransmission, pending routes all inside routeTimeout — must not
// allocate. The route scan previously rebuilt and sorted the full id slice
// every tick; it now reuses a scratch buffer and sorts only timed-out ids.
func TestTickAllocationFree(t *testing.T) {
	ft, err := NewFreeTransport(0, []string{"127.0.0.1:0"}, FreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.close()
	st := testStore()
	cfg := Config{
		ID: 0, Nodes: 1, StoreNodes: []NodeID{0}, Shards: 1,
		Frontend: true, Store: true,
		// Push every timer past the horizon so the measured ticks take the
		// nothing-due path.
	}
	cfg.timing = freeTiming
	cfg.heartbeatEvery, cfg.retransmitEvery, cfg.routeTimeout = 1<<62, 1<<62, 1<<62
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

// watchedTransport is a FreeTransport whose event-loop side a test can
// read: when the loop was first handed a kindPeerDown advisory, and the
// longest send or flush call so far (a send writes inline once its burst
// passes maxCoalescedBytes). Only the event loop calls these methods.
type watchedTransport struct {
	*FreeTransport
	peerDown atomic.Int64 // UnixNano of the first kindPeerDown; 0 until then
	worst    atomic.Int64 // ns
}

func (w *watchedTransport) recv(p *sched.Proc, deadline int64) (*message, bool) {
	m, ok := w.FreeTransport.recv(p, deadline)
	w.note(m, ok)
	return m, ok
}

func (w *watchedTransport) tryRecv(p *sched.Proc) (*message, bool) {
	m, ok := w.FreeTransport.tryRecv(p)
	w.note(m, ok)
	return m, ok
}

func (w *watchedTransport) note(m *message, ok bool) {
	if ok && m.kind == kindPeerDown {
		w.peerDown.CompareAndSwap(0, time.Now().UnixNano())
	}
}

func (w *watchedTransport) send(p *sched.Proc, to NodeID, m *message) {
	defer w.time(time.Now())
	w.FreeTransport.send(p, to, m)
}

func (w *watchedTransport) flush(p *sched.Proc) {
	defer w.time(time.Now())
	w.FreeTransport.flush(p)
}

func (w *watchedTransport) time(start time.Time) {
	if d := int64(time.Since(start)); d > w.worst.Load() {
		w.worst.Store(d)
	}
}

// newWatchedNode starts a node over a watched transport.
func newWatchedNode(lis net.Listener, addrs []string, cfg Config, stores []*service.Store) (*Node, *watchedTransport) {
	w := &watchedTransport{FreeTransport: newFreeTransport(cfg.ID, lis, addrs, testFreeConfig())}
	n := New(cfg, w, stores)
	w.setDrops(n.drops)
	go n.Run(nil)
	return n, w
}

// testStore is a one-shard store for a test node.
func testStore() *service.Store {
	return service.New(service.Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 64, MaxBatch: 16})
}

// TestStalledPeerCannotBlockLoop: a peer that accepts its link but never
// reads it fills the socket buffers, and the burst write that finds them
// full runs on the event loop. Without a write deadline that write blocks
// the whole node for good; with one it fails within writeTimeout, the
// link is retired, the peer is reported down and the loop goes on
// answering clients.
//
// Node 0 owns the shard and node 2 follows, so ops commit; node 1 is the
// stalled replica. Its ownerTimeout is an hour, so node 0 keeps it live,
// holds the whole log for it and streams every entry to it, until the
// stall reports it down.
func TestStalledPeerCannotBlockLoop(t *testing.T) {
	lis, addrs := listenPorts(t, 3)
	var held []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := lis[1].Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	cfg := func(id NodeID) Config {
		c := freeNodeConfig(id, 3, []NodeID{0, 1, 2}, 1)
		c.ownerTimeout = time.Hour.Nanoseconds()
		return c
	}
	n0, w0 := newWatchedNode(lis[0], addrs, cfg(0), []*service.Store{testStore()})
	defer n0.Close()
	n2, _ := newWatchedNode(lis[2], addrs, cfg(2), []*service.Store{testStore()})
	defer n2.Close()
	// Deferred last, so it runs first: releasing the stalled conns is what
	// lets a loop blocked in a write reach Close.
	defer func() {
		lis[1].Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}()

	val := strings.Repeat("v", 4<<10)
	var worst time.Duration
	after := 0 // ops answered after the peer was reported down
	deadline := time.Now().Add(20 * time.Second)
	for id := uint64(1); after < 100; id++ {
		if time.Now().After(deadline) {
			t.Fatalf("peer never reported down after %d ops", id-1)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		_, err := n0.Do(ctx, service.Op{Kind: service.OpPut, Key: "k", Val: val, ID: id})
		cancel()
		if err != nil {
			t.Fatalf("op %d: %v (the event loop is blocked)", id, err)
		}
		worst = max(worst, time.Since(start))
		if w0.peerDown.Load() != 0 {
			after++
		}
	}
	t.Logf("worst op %v, worst write %v", worst, time.Duration(w0.worst.Load()))
	// Non-vacuity: some write really did meet full buffers and wait. A
	// healthy write takes microseconds; a stalled one fails after
	// writeTimeout/2 to writeTimeout.
	if got := time.Duration(w0.worst.Load()); got < writeTimeout/4 {
		t.Fatalf("longest send or flush took %v; the stalled link never filled", got)
	} else if got > 2*writeTimeout {
		t.Fatalf("a send or flush took %v, past twice the %v write bound", got, writeTimeout)
	}
	if worst > 3*writeTimeout {
		t.Fatalf("an op took %v while the loop's writes are bounded by %v", worst, writeTimeout)
	}
}

// TestPeerDeathReportedWithoutPing: when a peer's process ends, the next
// heartbeat writes on its link fail, and that failure alone reports the
// peer down within a few heartbeat periods, ageing its lastHeard at once.
// ownerTimeout is an hour, so nothing else could age it.
func TestPeerDeathReportedWithoutPing(t *testing.T) {
	lis, addrs := listenPorts(t, 2)
	cfg := func(id NodeID) Config {
		c := freeNodeConfig(id, 2, []NodeID{0}, 1)
		c.ownerTimeout = time.Hour.Nanoseconds()
		c.Store = id == 0
		return c
	}
	n0, w0 := newWatchedNode(lis[0], addrs, cfg(0), []*service.Store{testStore()})
	n1, w1 := newWatchedNode(lis[1], addrs, cfg(1), nil)
	defer n1.Close()
	for !w0.peers[1].connected() || !w1.peers[0].connected() {
		time.Sleep(time.Millisecond)
	}
	if w0.peerDown.Load() != 0 {
		t.Fatal("peer reported down before it died")
	}

	died := time.Now()
	w1.close()
	beat := time.Duration(n0.cfg.heartbeatEvery)
	for w0.peerDown.Load() == 0 {
		if time.Since(died) > 100*beat {
			t.Fatalf("peer not reported down %v after its transport closed", time.Since(died))
		}
		time.Sleep(beat / 5)
	}
	if took := time.Duration(w0.peerDown.Load() - died.UnixNano()); took > 20*beat {
		t.Fatalf("peer reported down %v after it died, more than 20 heartbeat periods (%v)", took, beat)
	}
	t.Logf("reported down after %v", time.Duration(w0.peerDown.Load()-died.UnixNano()))
	n0.Close()
	if age := time.Since(time.Unix(0, n0.lastHeard[1])); age < time.Hour {
		t.Fatalf("node 1 last heard %v ago, want it aged past ownerTimeout (%v)", age, time.Hour)
	}
}

// countingConn counts the Read calls made on a connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestInboundBurstReadInFewSyscalls: a peer's burst of replication frames,
// written as one flush, reaches the inbox from a few reads of the link, not
// two reads per frame.
func TestInboundBurstReadInFewSyscalls(t *testing.T) {
	const burst, maxReads = 64, 4
	ft, err := NewFreeTransport(0, []string{"127.0.0.1:0"}, FreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.close()
	cli, peer := net.Pipe()
	defer cli.Close()
	cc := &countingConn{Conn: peer}
	served := make(chan struct{})
	go func() { defer close(served); ft.serveInbound(cc) }()
	var frames []byte
	for i := 0; i < burst; i++ {
		if frames, err = wire.AppendRepFrame(frames, wire.OpcodeRepHeartbeat, &wire.Rep{From: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	go cli.Write(frames)
	deadline := time.Now().Add(5 * time.Second).UnixNano()
	for i := 0; i < burst; i++ {
		m, ok := ft.recv(nil, deadline)
		if !ok || m.rep.Seq != uint64(i) {
			t.Fatalf("frame %d: ok=%v", i, ok)
		}
		ft.release(m)
	}
	if n := cc.reads.Load(); n > maxReads {
		t.Errorf("%d frames took %d reads, want at most %d", burst, n, maxReads)
	}
	cli.Close()
	<-served
}
