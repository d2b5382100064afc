// Command served serves the free-mode serving tier (internal/service): a
// sharded key-value store whose every shard is a replicated log in the
// style of the universal construction, continuously audited for
// linearizability while it serves, with supervised workers that are
// respawned after a crash.
//
// Endpoints:
//
//	POST /op       {"op":"get|put|cas","key":K,"val":V,"old":O,"id":N} → {"val":..,"ok":..}
//	GET  /stats    full service.Stats JSON plus the process goroutine count
//	GET  /metrics  Prometheus text exposition of the store's live metrics
//	GET  /config   current runtime-reloadable tunables (service.Tunables JSON)
//	POST /config   patch the tunables: absent fields keep their current value,
//	               invalid values are rejected with 400 and nothing changes
//	GET  /healthz  "ok"
//	POST /chaos    {"point":P,"action":"crash|delay|drop",...} arm a fault rule
//	GET  /chaos    fault-point counters              (both only with -chaos)
//
// With -config FILE, SIGHUP re-reads FILE (same JSON shape as POST /config,
// patched over the current tunables) and applies it — the classic ops
// workflow of editing a config file and HUPping the process.
//
// With -wire ADDR the server additionally listens for the binary wire
// protocol (docs/PROTOCOL.md, internal/wire) on ADDR: length-prefixed
// frames, connection multiplexing, pipelining, and batch frames that feed
// the store's per-shard batch windows directly. It is the data path
// cmd/loadgen drives; the HTTP mux keeps one-op POST /op for curl beside
// the control and observability endpoints. On shutdown the wire listener
// drains before the store closes.
//
// Typed serving errors map onto distinct status codes, so clients can pick
// the right reaction:
//
//	429 Too Many Requests   queue saturated — the op was never enqueued,
//	                        retry the same request after backing off
//	504 Gateway Timeout     deadline expired after the enqueue — the op may
//	                        still commit; retry with the same client id and
//	                        the store deduplicates
//	503 Service Unavailable the store is draining (shutdown in progress)
//
// On SIGINT/SIGTERM the server stops accepting, drains every queued
// command, flushes the online auditor, prints a final report, and exits 0 —
// or exits 3 if any audited window had no valid linearization.
//
// Run with:
//
//	go run ./cmd/served -addr :8080 -wire :9090 -shards 4
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 4, "number of replicated-log shards")
	workers := flag.Int("workers-per-shard", 2, "submitter workers (replicas) per shard")
	queue := flag.Int("queue", 1024, "per-shard queue depth (backpressure bound)")
	batch := flag.Int("batch", 64, "max commands grouped into one log command")
	auditOff := flag.Bool("audit-off", false, "disable the online linearizability auditor")
	auditWindow := flag.Int("audit-window", 16, "ops per audited per-key window")
	auditFrac := flag.Float64("audit-frac", 1.0, "fraction of the keyspace audited (by key hash)")
	supervise := flag.Bool("supervise", true, "respawn crashed workers (crash-loop breaker applies)")
	maxRestarts := flag.Int("max-restarts", 8, "per-slot crash budget before the breaker condemns the slot")
	chaos := flag.Bool("chaos", false, "expose the /chaos fault-injection endpoint (testing only)")
	configPath := flag.String("config", "", "tunables file re-read and applied on SIGHUP (JSON, same shape as POST /config)")
	wireAddr := flag.String("wire", "", "also listen for the binary wire protocol on this address (docs/PROTOCOL.md)")
	nodeID := flag.Int("node", 0, "this process's cluster node id (with -peers)")
	peers := flag.String("peers", "", "comma-separated cluster transport addresses indexed by node id; enables multi-node replication (docs/ARCHITECTURE.md)")
	roles := flag.String("roles", "frontend,store", "this node's cluster roles: comma subset of frontend,store")
	storeNodes := flag.String("store-nodes", "", "comma-separated node ids holding shard replicas (default: every peer)")
	maxInflight := flag.Int("max-inflight-entries", 0, "uncommitted log entries a shard owner may pipeline (0 = cluster default)")
	batchWindow := flag.Duration("batch-window", 0, "how long a shard owner holds a non-full log entry open for more routes (0 = commit-latency-first)")
	flag.Parse()

	cfg := service.Config{
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queue,
		MaxBatch:        *batch,
		Audit: service.AuditConfig{
			Disabled:       *auditOff,
			WindowOps:      *auditWindow,
			SampleFraction: *auditFrac,
		},
		Supervise: service.SuperviseConfig{
			Enabled:     *supervise,
			MaxRestarts: *maxRestarts,
		},
	}
	var faults *fault.Set
	if *chaos {
		faults = fault.NewSet()
		cfg.Faults = faults
	}

	// Single-process mode serves a store directly; -peers switches to a
	// cluster node replicating every shard across the store-role peers
	// (docs/ARCHITECTURE.md, "Multi-node topology").
	var (
		store *service.Store
		node  *cluster.Node
		be    wire.Backend // a single-process store or a cluster front-end node
	)
	if *peers != "" {
		var err error
		node, err = startCluster(cfg, *nodeID, *peers, *roles, *storeNodes, *maxInflight, *batchWindow)
		if err != nil {
			log.Fatalf("served: cluster: %v", err)
		}
		be = node
		log.Printf("served: cluster node %d up (roles %s, peers %s)", *nodeID, *roles, *peers)
	} else {
		store = service.New(cfg)
		be = store
	}

	srv := &http.Server{Addr: *addr, Handler: buildMux(be, store, node, faults)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("served: listening on %s (%d shards × %d workers, batch %d, queue %d, audit %v, supervise %v, chaos %v)",
		*addr, *shards, *workers, *batch, *queue, !*auditOff, *supervise, *chaos)

	var wireSrv *wire.Server
	if *wireAddr != "" {
		lis, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("served: wire listen: %v", err)
		}
		wireSrv = wire.NewServer(be, wire.ServerConfig{Logf: log.Printf})
		go func() {
			if err := wireSrv.Serve(lis); err != nil {
				errCh <- fmt.Errorf("wire: %w", err)
			}
		}()
		log.Printf("served: wire protocol (RPW1) on %s", lis.Addr())
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *configPath == "" || store == nil {
				log.Printf("served: SIGHUP ignored (no -config file, or cluster mode)")
				continue
			}
			if tun, err := reloadFromFile(store, *configPath); err != nil {
				log.Printf("served: SIGHUP reload rejected: %v", err)
			} else {
				log.Printf("served: SIGHUP reload applied: %+v", tun)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("served: shutting down")
	case err := <-errCh:
		log.Fatalf("served: %v", err)
	}

	// Drain each listener in turn, timing every stage for the final report:
	// the HTTP front end first, then the wire listener, then the store (or
	// the whole cluster node — replica stores and transport included).
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainStart := time.Now()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("served: http shutdown: %v", err)
	}
	httpDrain := time.Since(drainStart)
	var wireDrain time.Duration
	if wireSrv != nil {
		t := time.Now()
		if err := wireSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("served: wire shutdown: %v", err)
		}
		wireDrain = time.Since(t)
	}
	t := time.Now()
	if node != nil {
		if err := node.Close(); err != nil {
			log.Printf("served: node close: %v", err)
		}
	} else if err := store.Close(); err != nil {
		log.Printf("served: store close: %v", err)
	}
	backendDrain := time.Since(t)
	backendName := "store"
	if node != nil {
		backendName = "node"
	}
	log.Printf("served: drain: http=%s wire=%s %s=%s total=%s",
		httpDrain, wireDrain, backendName, backendDrain, time.Since(drainStart))

	st := be.Stats()
	log.Printf("served: final: %d ops in %d batches (mean %.1f cmds/batch)",
		st.TotalOps, st.Batches, st.BatchSize.Mean())
	for _, kind := range []string{"get", "put", "cas"} {
		l := st.Latency[kind]
		if l.Count == 0 {
			continue
		}
		log.Printf("served:   %-3s n=%-8d mean=%.0fns p50=%dns p99=%dns max<=%dns",
			kind, l.Count, l.MeanNs, l.P50Ns, l.P99Ns, l.MaxNs)
	}
	if sup := st.Supervision; sup.Enabled && sup.Restarts > 0 {
		log.Printf("served: supervision: %d restarts, %d condemned, recovery mean=%.0fns p99=%dns",
			sup.Restarts, sup.Condemned, sup.Recovery.MeanNs, sup.Recovery.P99Ns)
	}
	if node != nil {
		cs := node.Status()
		log.Printf("served: cluster: %d failovers, %d elections, %d redirects, %d route retries",
			cs.Failovers, cs.Elections, cs.Redirects, cs.RouteRetries)
	}
	a := st.Audit
	log.Printf("served: audit: %d ops sampled, %d windows checked, %d violations, %d gaps, %d dropped",
		a.SampledOps, a.WindowsChecked, a.Violations, a.Gaps, a.DroppedOps)
	if a.Violations > 0 {
		for _, s := range a.ViolationSamples {
			log.Printf("served: VIOLATION: %s", s)
		}
		os.Exit(3)
	}
}

// startCluster parses the -node/-peers/-roles/-store-nodes flags, builds
// the per-shard replica stores (store role) and the RPW1 free transport,
// and starts the cluster node's event loop. maxInflight and batchWindow
// tune the owner's replication pipeline (docs/OPERATIONS.md).
func startCluster(cfg service.Config, nodeID int, peers, roles, storeNodes string, maxInflight int, batchWindow time.Duration) (*cluster.Node, error) {
	addrs := strings.Split(peers, ",")
	if nodeID < 0 || nodeID >= len(addrs) {
		return nil, fmt.Errorf("-node %d out of range for %d peers", nodeID, len(addrs))
	}
	var frontend, storeRole bool
	for _, r := range strings.Split(roles, ",") {
		switch strings.TrimSpace(r) {
		case "frontend":
			frontend = true
		case "store":
			storeRole = true
		case "":
		default:
			return nil, fmt.Errorf("unknown role %q (want frontend,store)", r)
		}
	}
	if !frontend && !storeRole {
		return nil, errors.New("-roles selects neither frontend nor store")
	}
	var replicas []cluster.NodeID
	if storeNodes == "" {
		for i := range addrs {
			replicas = append(replicas, cluster.NodeID(i))
		}
	} else {
		for _, f := range strings.Split(storeNodes, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || id < 0 || id >= len(addrs) {
				return nil, fmt.Errorf("bad -store-nodes entry %q", f)
			}
			replicas = append(replicas, cluster.NodeID(id))
		}
	}
	// Role/membership consistency. A store-role node outside the replica
	// set never receives appends, so its owner timeout fires on every shard
	// and it campaigns forever (vote escalation can depose live owners); a
	// replica-set member without the store role counts in the quorum
	// denominator but never acks or votes, silently costing fault
	// tolerance. Both are misconfigurations, not deployments — refuse them.
	selfReplica := false
	seen := map[cluster.NodeID]bool{}
	for _, id := range replicas {
		if seen[id] {
			return nil, fmt.Errorf("-store-nodes lists node %d twice", id)
		}
		seen[id] = true
		if id == cluster.NodeID(nodeID) {
			selfReplica = true
		}
	}
	if storeRole && !selfReplica {
		return nil, fmt.Errorf("-roles includes store but node %d is not in -store-nodes %q: the replica would never receive appends and would campaign forever", nodeID, storeNodes)
	}
	if !storeRole && selfReplica {
		if storeNodes == "" {
			return nil, fmt.Errorf("-roles %q excludes store but -store-nodes is unset (default: all peers replicate): a frontend-only node needs an explicit -store-nodes naming the store-role peers", roles)
		}
		return nil, fmt.Errorf("node %d is in -store-nodes %q but -roles %q excludes store: it would count toward the quorum without ever acking or voting", nodeID, storeNodes, roles)
	}
	var stores []*service.Store
	if storeRole {
		for s := 0; s < cfg.Shards; s++ {
			shardCfg := cfg
			shardCfg.Shards = 1
			shardCfg.Faults = nil // chaos targets the single-process mode
			stores = append(stores, service.New(shardCfg))
		}
	}
	tr, err := cluster.NewFreeTransport(cluster.NodeID(nodeID), addrs, cluster.FreeConfig{Logf: log.Printf})
	if err != nil {
		return nil, err
	}
	n := cluster.New(cluster.Config{
		ID: cluster.NodeID(nodeID), Nodes: len(addrs), StoreNodes: replicas,
		Shards: cfg.Shards, Frontend: frontend, Store: storeRole,
		MaxInflightEntries: maxInflight, BatchWindow: batchWindow.Nanoseconds(),
		Logf: log.Printf,
	}, tr, stores)
	go n.Run(nil)
	return n, nil
}

// wireOp is the JSON shape of one command on POST /op. ID, when
// non-zero, is the client-assigned idempotency token: resubmitting an op
// with the same id after a 504 is answered from the dedup table instead of
// applying twice.
type wireOp struct {
	Op  string `json:"op"`
	Key string `json:"key"`
	Val string `json:"val"`
	Old string `json:"old"`
	ID  uint64 `json:"id,omitempty"`
}

func (w wireOp) decode() (service.Op, error) {
	kind, err := service.KindOf(w.Op)
	if err != nil {
		return service.Op{}, err
	}
	return service.Op{Kind: kind, Key: w.Key, Val: w.Val, Old: w.Old, ID: w.ID}, nil
}

// statusOf maps the serving tier's typed errors onto HTTP status codes; see
// the package comment for the retry semantics each code implies.
func statusOf(err error) int {
	switch {
	case errors.Is(err, service.ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// patchTunables decodes a JSON tunables patch over the store's current
// tunables and applies it: fields absent from the document keep their live
// value, so `{"max_batch": 16}` adjusts one knob without restating the rest.
// Unknown fields are rejected (a typo must not silently no-op). On any
// error the live tunables are untouched.
func patchTunables(store *service.Store, r io.Reader) (service.Tunables, error) {
	tun := store.Tunables()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tun); err != nil {
		return tun, err
	}
	if err := store.Reload(tun); err != nil {
		return tun, err
	}
	return tun, nil
}

// reloadFromFile applies a tunables patch file (the SIGHUP path).
func reloadFromFile(store *service.Store, path string) (service.Tunables, error) {
	f, err := os.Open(path)
	if err != nil {
		return service.Tunables{}, err
	}
	defer f.Close()
	return patchTunables(store, f)
}

// wireRule is the JSON shape of one POST /chaos fault rule.
type wireRule struct {
	Point   string `json:"point"`
	Action  string `json:"action"` // "crash", "delay", "drop", or "off" (disarm)
	After   int64  `json:"after"`
	Count   int64  `json:"count"` // 0 = once, -1 = unlimited
	DelayNs int64  `json:"delay_ns"`
}

// newMux builds the single-process HTTP front end over a store (the shape
// the tests drive with httptest).
func newMux(store *service.Store, faults *fault.Set) *http.ServeMux {
	return buildMux(store, store, nil, faults)
}

// buildMux builds the HTTP front end over a backend. store is non-nil only
// in single-process mode (config reload and chaos act on one store); node
// is non-nil only in cluster mode (role-aware health, cluster metrics).
// faults, when non-nil, additionally exposes the /chaos arming endpoint.
func buildMux(be wire.Backend, store *service.Store, node *cluster.Node, faults *fault.Set) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /op", func(w http.ResponseWriter, r *http.Request) {
		var wire wireOp
		if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		op, err := wire.decode()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := be.Do(r.Context(), op)
		if err != nil {
			http.Error(w, err.Error(), statusOf(err))
			return
		}
		writeJSON(w, res)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			service.Stats
			Goroutines int `json:"goroutines"`
		}{be.Stats(), runtime.NumGoroutine()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		var err error
		if node != nil {
			// Cluster mode: merge the node's cluster_* registry with every
			// shard replica store's service_* registry (distinguished by a
			// cluster_shard label) into one valid exposition, so cluster
			// deployments keep the op/batch/latency visibility of
			// single-process mode.
			parts := []metrics.LabeledRegistry{{Reg: node.Metrics()}}
			for s, reg := range node.StoreRegistries() {
				parts = append(parts, metrics.LabeledRegistry{
					Reg:   reg,
					Extra: metrics.Labels{{Name: "cluster_shard", Value: strconv.Itoa(s)}},
				})
			}
			err = metrics.WriteMultiProm(w, parts)
		} else {
			err = store.Metrics().WriteProm(w)
		}
		if err != nil {
			log.Printf("served: write metrics: %v", err)
		}
	})
	if store != nil {
		mux.HandleFunc("GET /config", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, store.Tunables())
		})
		mux.HandleFunc("POST /config", func(w http.ResponseWriter, r *http.Request) {
			tun, err := patchTunables(store, r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			writeJSON(w, tun)
		})
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if node == nil {
			fmt.Fprintln(w, "ok")
			return
		}
		writeJSON(w, node.Status())
	})
	if node != nil {
		// Per-role health: a load balancer fronting the cluster checks
		// /healthz/frontend on routing targets, /healthz/store answers for the
		// replica role.
		mux.HandleFunc("GET /healthz/frontend", func(w http.ResponseWriter, r *http.Request) {
			st := node.Status()
			if !st.Frontend {
				http.Error(w, "not a frontend", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("GET /healthz/store", func(w http.ResponseWriter, r *http.Request) {
			st := node.Status()
			if !st.Store {
				http.Error(w, "not a store", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		})
	}
	if faults != nil {
		mux.HandleFunc("POST /chaos", func(w http.ResponseWriter, r *http.Request) {
			var wire wireRule
			if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if wire.Action == "off" {
				faults.Disarm(wire.Point)
				writeJSON(w, map[string]string{"point": wire.Point, "armed": "off"})
				return
			}
			action, err := fault.ActionOf(wire.Action)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			faults.Arm(wire.Point, fault.Rule{
				Action: action,
				After:  wire.After,
				Count:  wire.Count,
				Delay:  wire.DelayNs,
			})
			writeJSON(w, map[string]string{"point": wire.Point, "armed": wire.Action})
		})
		mux.HandleFunc("GET /chaos", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, faults.Stats())
		})
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("served: encode response: %v", err)
	}
}
