package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// clusterTestConfig is a small store config for single-node cluster tests.
func clusterTestConfig() service.Config {
	return service.Config{
		Shards: 2, WorkersPerShard: 1, QueueDepth: 64, MaxBatch: 16,
	}
}

// selfAddr is the listen address for a node under test: each node binds
// only its own port, so an ephemeral one never has to be reserved first.
const selfAddr = "127.0.0.1:0"

// TestStartClusterSingleNode: a one-peer cluster (quorum 1) serves through
// the same mux as the single-process mode — ops route and commit, /healthz
// returns the node status document, the per-role probes answer by role, and
// /metrics carries the cluster families.
func TestStartClusterSingleNode(t *testing.T) {
	node, err := startCluster(clusterTestConfig(), 0, selfAddr, "frontend,store", "", 0, 0)
	if err != nil {
		t.Fatalf("startCluster: %v", err)
	}
	defer node.Close()

	srv := httptest.NewServer(buildMux(node, nil, node, nil))
	defer srv.Close()

	// The first op blocks through the initial ownership election (production
	// default timers), so give it time.
	client := srv.Client()
	client.Timeout = 60 * time.Second
	if code, body := post(t, srv, "/op", `{"op":"put","key":"k1","val":"v1"}`); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	code, body := post(t, srv, "/op", `{"op":"get","key":"k1"}`)
	if code != http.StatusOK || !strings.Contains(body, `"v1"`) {
		t.Fatalf("get: %d %s", code, body)
	}
	if code, body := post(t, srv, "/op", `{"op":"put","key":"k2","val":"v2"}`); code != http.StatusOK {
		t.Fatalf("put k2: %d %s", code, body)
	}
	if code, body := post(t, srv, "/op", `{"op":"get","key":"k2"}`); code != http.StatusOK || !strings.Contains(body, `"v2"`) {
		t.Fatalf("get k2: %d %s", code, body)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readAll(t, resp)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"frontend":true`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body := get("/healthz/frontend"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz/frontend: %d %s", code, body)
	}
	if code, body := get("/healthz/store"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz/store: %d %s", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "cluster_owned_shards") {
		t.Fatalf("metrics: %d missing cluster families:\n%s", code, body)
	}
	code, body = get("/stats")
	if code != http.StatusOK || !strings.Contains(body, `"goroutines"`) {
		t.Fatalf("stats: %d %s", code, body)
	}
	// The node's Stats is the merged view over its per-shard stores, so
	// cluster mode reports latency and batch occupancy like single-process
	// mode does (2 puts + 2 gets above, spread over both shards' stores).
	var st service.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats: %v in %s", err, body)
	}
	for _, kind := range []string{"put", "get"} {
		if l := st.Latency[kind]; st.Ops[kind] != 2 || l.Count != 2 || l.MeanNs <= 0 || l.P99Ns < l.P50Ns || l.P50Ns <= 0 {
			t.Fatalf("merged %s stats: ops %d, latency %+v", kind, st.Ops[kind], l)
		}
	}
	if st.Batches == 0 || st.BatchSize.Count != st.Batches || st.BatchSize.Sum != st.TotalOps {
		t.Fatalf("merged batch stats: %d batches, occupancy %+v, %d ops", st.Batches, st.BatchSize, st.TotalOps)
	}
	// Single-process-only endpoints are absent in cluster mode.
	if code, _ := get("/config"); code == http.StatusOK {
		t.Fatal("GET /config should not exist in cluster mode")
	}
}

// TestClusterRoleHealth: a store-only node answers 503 on the frontend
// probe and ok on the store probe.
func TestClusterRoleHealth(t *testing.T) {
	node, err := startCluster(clusterTestConfig(), 0, selfAddr, "store", "0", 0, 0)
	if err != nil {
		t.Fatalf("startCluster: %v", err)
	}
	defer node.Close()
	srv := httptest.NewServer(buildMux(node, nil, node, nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz/frontend")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "not a frontend") {
		t.Fatalf("healthz/frontend on store-only node: %d %s", resp.StatusCode, body)
	}
	resp, err = srv.Client().Get(srv.URL + "/healthz/store")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz/store on store-only node: %d %s", resp.StatusCode, body)
	}
}

// TestStartClusterFlagErrors: every malformed flag combination is refused
// before any listener binds.
func TestStartClusterFlagErrors(t *testing.T) {
	cfg := clusterTestConfig()
	cases := []struct {
		name       string
		node       int
		peers      string
		roles      string
		storeNodes string
	}{
		{"node out of range", 2, "a:1,b:2", "frontend,store", ""},
		{"negative node", -1, "a:1", "frontend,store", ""},
		{"unknown role", 0, "a:1", "frontend,zebra", ""},
		{"no role", 0, "a:1", ",", ""},
		{"non-numeric store node", 0, "a:1", "frontend,store", "x"},
		{"store node out of range", 0, "a:1", "frontend,store", "7"},
		// Role/membership inconsistency: a store-role node outside the
		// replica set would campaign forever; a replica-set member without
		// the store role would silently weaken the quorum; a frontend-only
		// node under the all-peers default is the latter in disguise.
		{"store role not in store-nodes", 0, "a:1,b:2,c:3", "frontend,store", "1,2"},
		{"replica without store role", 0, "a:1,b:2,c:3", "frontend", "0,1"},
		{"frontend-only without store-nodes", 0, "a:1,b:2,c:3", "frontend", ""},
		{"duplicate store node", 0, "a:1,b:2,c:3", "frontend,store", "0,0,1"},
	}
	for _, tc := range cases {
		if n, err := startCluster(cfg, tc.node, tc.peers, tc.roles, tc.storeNodes, 0, 0); err == nil {
			n.Close()
			t.Errorf("%s: startCluster accepted", tc.name)
		}
	}
}

// TestStartClusterSplitRoles: the canonical split topology — store role on
// an explicit replica subset, frontend elsewhere — passes validation on
// both sides. Validation is all it checks, so the nodes never need to
// reach each other, and each binds an ephemeral port of its own.
func TestStartClusterSplitRoles(t *testing.T) {
	peers := strings.Join([]string{selfAddr, selfAddr, selfAddr}, ",")
	store, err := startCluster(clusterTestConfig(), 0, peers, "store", "0,1", 0, 0)
	if err != nil {
		t.Fatalf("store node refused: %v", err)
	}
	defer store.Close()
	fe, err := startCluster(clusterTestConfig(), 2, peers, "frontend", "0,1", 0, 0)
	if err != nil {
		t.Fatalf("frontend node refused: %v", err)
	}
	defer fe.Close()
}

// TestClusterMetricsIncludeStores: cluster-mode /metrics must expose the
// shard replica stores' service families (distinguished by cluster_shard)
// alongside the node's cluster families — one scrape, no duplicate TYPE
// blocks.
func TestClusterMetricsIncludeStores(t *testing.T) {
	node, err := startCluster(clusterTestConfig(), 0, selfAddr, "frontend,store", "", 0, 0)
	if err != nil {
		t.Fatalf("startCluster: %v", err)
	}
	defer node.Close()
	srv := httptest.NewServer(buildMux(node, nil, node, nil))
	defer srv.Close()

	client := srv.Client()
	client.Timeout = 60 * time.Second
	if code, body := post(t, srv, "/op", `{"op":"put","key":"mk","val":"mv"}`); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d\n%s", resp.StatusCode, body)
	}
	for _, want := range []string{
		"cluster_owned_shards",
		`cluster_shard="0"`,
		`cluster_shard="1"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// Merged exposition stays a valid scrape: one TYPE line per family.
	types := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if types[line] {
				t.Fatalf("duplicate %q in merged scrape", line)
			}
			types[line] = true
		}
	}
}
