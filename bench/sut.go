package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/wire"
)

const (
	shards       = 4
	clusterNodes = 3
	readyTimeout = 20 * time.Second
	closeTimeout = 10 * time.Second
)

// storeConfig is cmd/served's flag defaults: the configuration production runs.
func storeConfig(shards int) service.Config {
	return service.Config{
		Shards:          shards,
		WorkersPerShard: 2,
		QueueDepth:      1024,
		MaxBatch:        64,
		Audit:           service.AuditConfig{WindowOps: 16, SampleFraction: 1},
		Supervise:       service.SuperviseConfig{Enabled: true, MaxRestarts: 8},
	}
}

// client is the call surface the load is driven through. *service.Store and
// *cluster.Node satisfy it as they are.
type client interface {
	Do(ctx context.Context, op service.Op) (service.Result, error)
	DoBatch(ctx context.Context, ops []service.Op) ([]service.Result, error)
}

// connClient drives one wire connection; the protocol has no deadlines, so
// the context is unused.
type connClient struct{ c *wire.Conn }

func (c connClient) Do(_ context.Context, op service.Op) (service.Result, error) { return c.c.Do(op) }
func (c connClient) DoBatch(_ context.Context, ops []service.Op) ([]service.Result, error) {
	return c.c.DoBatch(ops, nil)
}

// timedBackend is the wire.Backend handed to wire.NewServer on traced runs:
// it records a service span, keyed by the op's ID, around every Do the server
// makes into the store. (Batch frames carry only the untraced preload.)
type timedBackend struct {
	*service.Store
	rec *recorder
}

func (b timedBackend) Do(ctx context.Context, op service.Op) (service.Result, error) {
	if !b.rec.on() {
		return b.Store.Do(ctx, op)
	}
	start := time.Now()
	res, err := b.Store.Do(ctx, op)
	b.rec.add(layerService, op.ID, start, time.Now())
	return res, err
}

// sut is one constructed system under test.
type sut struct {
	clients []client // one per client goroutine

	store  *service.Store // store and wire workloads
	server *wire.Server
	conns  []*wire.Conn

	nodes    []*cluster.Node
	replicas [][]*service.Store // [node][shard]; the bench owns what it gave cluster.New
}

// construct builds the workload's stack and returns once it answers. rec,
// when non-nil, puts the span-recording backend between wire and service.
func construct(w workload, rec *recorder) (*sut, error) {
	switch w.root {
	case layerService:
		st := service.New(storeConfig(shards))
		return &sut{store: st, clients: []client{st, st}}, nil
	case layerWire:
		return constructWire(rec)
	default:
		return constructCluster()
	}
}

func constructWire(rec *recorder) (*sut, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sut{store: service.New(storeConfig(shards))}
	var be wire.Backend = s.store
	if rec != nil {
		be = timedBackend{s.store, rec}
	}
	s.server = wire.NewServer(be, wire.ServerConfig{})
	go s.server.Serve(lis) //nolint:errcheck // a failed accept loop surfaces as failed dials and ops
	for i := 0; i < numClients; i++ {
		c, err := wire.Dial(lis.Addr().String())
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.conns = append(s.conns, c)
		s.clients = append(s.clients, connClient{c})
	}
	return s, nil
}

// constructCluster starts a 3-node loopback cluster, every node front end
// and store, with served's timer defaults and no batch window. It is ready
// once every node reaches every peer, every shard has answered an op and
// every replica has caught up. The first wait matters: an op committed while
// a replica is still being dialled can leave that replica behind the owners'
// truncation point for good (ROADMAP item 1), and the run would then fail
// its frontier check.
func constructCluster() (*sut, error) {
	addrs := make([]string, clusterNodes)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	s := &sut{}
	for i := 0; i < clusterNodes; i++ {
		tr, err := cluster.NewFreeTransport(cluster.NodeID(i), addrs, cluster.FreeConfig{})
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		reps := make([]*service.Store, shards)
		for sh := range reps {
			reps[sh] = service.New(storeConfig(1))
		}
		n := cluster.New(cluster.Config{
			ID: cluster.NodeID(i), Nodes: clusterNodes, Shards: shards, Frontend: true, Store: true,
		}, tr, reps)
		go n.Run(nil)
		s.nodes = append(s.nodes, n)
		s.replicas = append(s.replicas, reps)
	}
	s.clients = []client{s.nodes[0], s.nodes[0]}

	if err := s.connected(readyTimeout); err != nil {
		return nil, errors.Join(err, s.close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	for sh := 0; sh < shards; sh++ {
		op := service.Op{Kind: service.OpPut, Key: shardKey(sh), Val: "ready", ID: 1<<63 + uint64(sh)}
		if _, err := s.nodes[0].Do(ctx, op); err != nil {
			return nil, errors.Join(fmt.Errorf("shard %d not ready: %w", sh, err), s.close())
		}
	}
	if err := s.quiesce(readyTimeout); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// shardKey returns a key outside the workload keyspace that hashes to shard sh.
func shardKey(sh int) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("ready%d", i); service.ShardIndex(k, shards) == sh {
			return k
		}
	}
}

// owner is the node that owns shard sh while nothing has failed.
func owner(sh int) int { return sh % clusterNodes }

// connected waits until every node's frames reach every peer: across a
// stretch of four heartbeat periods each node sent messages and dropped none
// (a frame to a peer with no connection is dropped and counted).
func (s *sut) connected(limit time.Duration) error {
	const stretch = 100 * time.Millisecond
	deadline := time.Now().Add(limit)
	var prevSent, prevDropped []float64
	for {
		sent, dropped := make([]float64, len(s.nodes)), make([]float64, len(s.nodes))
		up := prevSent != nil
		for i, n := range s.nodes {
			var err error
			if sent[i], dropped[i], err = frameCounts(n); err != nil {
				return err
			}
			up = up && sent[i] > prevSent[i] && dropped[i] == prevDropped[i]
		}
		if up {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nodes still dropping frames to their peers after %v", limit)
		}
		prevSent, prevDropped = sent, dropped
		time.Sleep(stretch)
	}
}

// quiesce waits until every shard's committed frontier is the same on all
// nodes. With the clients stopped that is the state the cluster must reach;
// a replica that never does has diverged or stalled.
func (s *sut) quiesce(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		bad := -1
		first := s.nodes[0].Status().Shards
		for _, n := range s.nodes[1:] {
			for sh, st := range n.Status().Shards {
				if st.Committed != first[sh].Committed {
					bad = sh
				}
			}
		}
		if bad < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard %d: committed frontiers still differ across nodes after %v", bad, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stores lists every service.Store of the system: the one store, or every
// replica of every node.
func (s *sut) stores() []*service.Store {
	if s.store != nil {
		return []*service.Store{s.store}
	}
	var all []*service.Store
	for _, reps := range s.replicas {
		all = append(all, reps...)
	}
	return all
}

// close tears the system down in served's order — client conns, then the
// wire server, then the store or nodes — and bounds every step, so a hung
// shutdown fails this run instead of leaking into the next one.
func (s *sut) close() error {
	var errs []error
	for _, c := range s.conns {
		c.Close()
	}
	if s.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
		if err := s.server.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("wire server shutdown: %w", err))
		}
		cancel()
	}
	if s.store != nil {
		errs = append(errs, bounded("store close", s.store.Close))
	}
	for i, n := range s.nodes {
		err := bounded(fmt.Sprintf("node %d close", i), n.Close)
		if !errors.Is(err, service.ErrClosed) { // the failover probe closes node 0 itself
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func bounded(what string, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	case <-time.After(closeTimeout):
		return fmt.Errorf("%s: still running after %v", what, closeTimeout)
	}
}
