package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
)

func testServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Store) {
	t.Helper()
	store := service.New(cfg)
	srv := httptest.NewServer(newMux(store, cfg.Faults))
	t.Cleanup(srv.Close)
	return srv, store
}

func post(t *testing.T, srv *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestOpHandler(t *testing.T) {
	srv, store := testServer(t, service.Config{Shards: 2})
	defer store.Close()

	code, body := post(t, srv, "/op", `{"op":"put","key":"a","val":"1"}`)
	if code != http.StatusOK || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("put = %d %q", code, body)
	}
	code, body = post(t, srv, "/op", `{"op":"get","key":"a"}`)
	if code != http.StatusOK || !strings.Contains(body, `"val":"1"`) {
		t.Fatalf("get = %d %q", code, body)
	}
	code, body = post(t, srv, "/op", `{"op":"cas","key":"a","old":"1","val":"2"}`)
	if code != http.StatusOK || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("cas = %d %q", code, body)
	}
	code, body = post(t, srv, "/op", `{"op":"cas","key":"a","old":"1","val":"3"}`)
	if code != http.StatusOK || strings.Contains(body, `"ok":true`) {
		t.Fatalf("failed cas = %d %q, want ok=false", code, body)
	}
	// A get on a missing key answers 200 with ok=false, not an error.
	code, body = post(t, srv, "/op", `{"op":"get","key":"ghost"}`)
	if code != http.StatusOK || strings.Contains(body, `"ok":true`) {
		t.Fatalf("missing get = %d %q", code, body)
	}
}

func TestOpHandlerRejectsMalformed(t *testing.T) {
	srv, store := testServer(t, service.Config{Shards: 1})
	defer store.Close()

	for _, body := range []string{
		`{not json`,
		`{"op":"bump","key":"a"}`, // unknown op kind
		``,
	} {
		code, _ := post(t, srv, "/op", body)
		if code != http.StatusBadRequest {
			t.Errorf("op %q = %d, want 400", body, code)
		}
	}
	// Method routing: GET on /op is not found by the method-aware mux.
	resp, err := http.Get(srv.URL + "/op")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /op = %d, want method rejection", resp.StatusCode)
	}
	// Batches travel as RPW1 batch frames only: the HTTP batch endpoint
	// is gone.
	if code, _ := post(t, srv, `/batch`, `[{"op":"get","key":"a"}]`); code != http.StatusMethodNotAllowed && code != http.StatusNotFound {
		t.Fatalf("batch endpoint = %d, want 404/405", code)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	srv, store := testServer(t, service.Config{Shards: 2})
	defer store.Close()

	post(t, srv, "/op", `{"op":"put","key":"a","val":"1"}`)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.TotalOps != 1 || st.Ops["put"] != 1 {
		t.Fatalf("stats = %+v, want 1 put", st)
	}
	if st.Audit.Violations != 0 {
		t.Fatalf("audit violations: %v", st.Audit.ViolationSamples)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestStatusSaturated: a queue.send drop (the fault-injection stand-in for
// a saturated queue) maps to 429 — the op was never enqueued, so the client
// may retry the identical request.
func TestStatusSaturated(t *testing.T) {
	fs := fault.NewSet()
	srv, store := testServer(t, service.Config{Shards: 1, Faults: fs})
	defer store.Close()

	fs.Arm(service.FaultQueueSend, fault.Rule{Action: fault.Drop, Count: 1})
	code, body := post(t, srv, "/op", `{"op":"put","key":"a","val":"1"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated op = %d %q, want 429", code, body)
	}
	// The rule is spent: the retry succeeds.
	code, body = post(t, srv, "/op", `{"op":"put","key":"a","val":"1"}`)
	if code != http.StatusOK {
		t.Fatalf("retry after 429 = %d %q, want 200", code, body)
	}
}

// TestStatusDeadline: a request whose context deadline expires after the
// enqueue maps to 504 — the op may still commit, so the client must retry
// with the same id. Served through ServeHTTP directly so the request
// context is ours, not the network client's.
func TestStatusDeadline(t *testing.T) {
	fs := fault.NewSet()
	fs.Arm(service.FaultWorkerPreCommit, fault.Rule{Action: fault.Delay,
		Delay: int64(100 * time.Millisecond), Count: -1})
	store := service.New(service.Config{Shards: 1, WorkersPerShard: 1, Faults: fs})
	defer store.Close()
	mux := newMux(store, fs)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("POST", "/op",
		strings.NewReader(`{"op":"put","key":"a","val":"1","id":7}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadlined op = %d %q, want 504", rec.Code, rec.Body.String())
	}
	// Disarm and retry with the same id: the store answers exactly once —
	// either the first attempt's late commit via dedup or a fresh apply.
	fs.Disarm(service.FaultWorkerPreCommit)
	req = httptest.NewRequest("POST", "/op",
		strings.NewReader(`{"op":"put","key":"a","val":"1","id":7}`))
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry after 504 = %d %q, want 200", rec.Code, rec.Body.String())
	}
}

// TestStatusClosed: ops against a draining store map to 503.
func TestStatusClosed(t *testing.T) {
	srv, store := testServer(t, service.Config{Shards: 1})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, srv, "/op", `{"op":"get","key":"a"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("op on closed store = %d %q, want 503", code, body)
	}
}

// TestOpIDDeduplicates: resubmitting an op with the same client id answers
// from the dedup table without reapplying — the wire-level contract behind
// "retry a 504 with the same id".
func TestOpIDDeduplicates(t *testing.T) {
	srv, store := testServer(t, service.Config{Shards: 1})
	defer store.Close()

	code, body := post(t, srv, "/op", `{"op":"put","key":"k","val":"first","id":42}`)
	if code != http.StatusOK {
		t.Fatalf("put = %d %q", code, body)
	}
	// Same id, different payload: the duplicate must not apply.
	code, body = post(t, srv, "/op", `{"op":"put","key":"k","val":"second","id":42}`)
	if code != http.StatusOK || !strings.Contains(body, `"val":"first"`) {
		t.Fatalf("duplicate = %d %q, want the first attempt's cached result", code, body)
	}
	code, body = post(t, srv, "/op", `{"op":"get","key":"k"}`)
	if code != http.StatusOK || !strings.Contains(body, `"val":"first"`) {
		t.Fatalf("get after duplicate = %d %q, want the first write preserved", code, body)
	}
}

// TestChaosEndpoint arms, observes and disarms a fault rule over HTTP, and
// verifies the endpoint is absent without -chaos.
func TestChaosEndpoint(t *testing.T) {
	fs := fault.NewSet()
	srv, store := testServer(t, service.Config{Shards: 1, Faults: fs})
	defer store.Close()

	code, body := post(t, srv, "/chaos",
		fmt.Sprintf(`{"point":%q,"action":"drop","count":1}`, service.FaultQueueSend))
	if code != http.StatusOK {
		t.Fatalf("arm = %d %q", code, body)
	}
	if code, body = post(t, srv, "/op", `{"op":"put","key":"a","val":"1"}`); code != http.StatusTooManyRequests {
		t.Fatalf("op under armed drop = %d %q, want 429", code, body)
	}
	resp, err := http.Get(srv.URL + "/chaos")
	if err != nil {
		t.Fatal(err)
	}
	var pts map[string]fault.PointStats
	if err := json.NewDecoder(resp.Body).Decode(&pts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pts[service.FaultQueueSend].Acted != 1 {
		t.Fatalf("chaos stats = %+v, want 1 acted at %s", pts, service.FaultQueueSend)
	}
	if code, body = post(t, srv, "/chaos",
		fmt.Sprintf(`{"point":%q,"action":"off"}`, service.FaultQueueSend)); code != http.StatusOK {
		t.Fatalf("disarm = %d %q", code, body)
	}
	if code, body = post(t, srv, "/op", `{"op":"put","key":"a","val":"1"}`); code != http.StatusOK {
		t.Fatalf("op after disarm = %d %q, want 200", code, body)
	}
	if code, _ = post(t, srv, "/chaos", `{"point":"worker.preCommit","action":"explode"}`); code != http.StatusBadRequest {
		t.Fatalf("bad action = %d, want 400", code)
	}

	// Without a fault set the endpoint does not exist.
	plain, plainStore := testServer(t, service.Config{Shards: 1})
	defer plainStore.Close()
	if code, _ = post(t, plain, "/chaos", `{"point":"queue.send","action":"drop"}`); code == http.StatusOK {
		t.Fatal("chaos endpoint served without -chaos")
	}
}

// TestStatsGoroutines: /stats carries the process goroutine count for the
// soak harness's leak assertion.
func TestStatsGoroutines(t *testing.T) {
	srv, store := testServer(t, service.Config{Shards: 1})
	defer store.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Goroutines int `json:"goroutines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Goroutines <= 0 {
		t.Fatalf("goroutines = %d, want > 0", st.Goroutines)
	}
}

// jsonKeys flattens a decoded JSON document into its sorted key paths
// (arrays and scalars are leaves).
func jsonKeys(prefix string, v any, out *[]string) {
	obj, ok := v.(map[string]any)
	if !ok {
		*out = append(*out, prefix)
		return
	}
	for k, child := range obj {
		jsonKeys(strings.TrimPrefix(prefix+"."+k, "."), child, out)
	}
}

// TestStatsKeySet pins the /stats document's key set: Stats() is a view
// assembled field by field from the metrics registry, and operators'
// scripts (scripts/*.sh, loadgen's verdict) address it by key, so the view
// must not silently drop or rename one.
func TestStatsKeySet(t *testing.T) {
	fs := fault.NewSet()
	fs.Arm(service.FaultAuditRecord, fault.Rule{Action: fault.Drop, After: 1 << 30})
	srv, store := testServer(t, service.Config{Shards: 1, Faults: fs})
	defer store.Close()
	post(t, srv, "/op", `{"op":"put","key":"a","val":"1"}`)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var got []string
	jsonKeys("", doc, &got)
	sort.Strings(got)

	hist := func(p string) []string {
		return []string{p + ".buckets", p + ".count", p + ".max", p + ".sum"}
	}
	summary := func(p string) []string {
		return append(hist(p+".hist"), p+".count", p+".max_ns", p+".mean_ns", p+".p50_ns", p+".p99_ns")
	}
	want := []string{
		"shards", "workers_per_shard", "total_ops", "batches", "queue_depth", "committed", "goroutines",
		"ops.get", "ops.put", "ops.cas",
		"audit.sampled_ops", "audit.dropped_ops", "audit.windows_checked", "audit.violations",
		"audit.truncated", "audit.gaps",
		"supervision.enabled", "supervision.restarts", "supervision.condemned", "supervision.spares_exhausted",
		"faults.audit.record.fires", "faults.audit.record.acted",
	}
	want = append(want, hist("batch_size")...)
	want = append(want, summary("supervision.recovery")...)
	for _, kind := range []string{"get", "put", "cas"} {
		want = append(want, summary("latency."+kind)...)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/stats key set changed:\n got  %v\n want %v", got, want)
	}
}

// TestDrainWhileInFlight closes the store while requests are in flight
// through the HTTP layer: every response must be either a committed 200 or
// a clean 503 (ErrClosed) — never a hang, a 500, or a torn result.
func TestDrainWhileInFlight(t *testing.T) {
	srv, store := testServer(t, service.Config{Shards: 2, QueueDepth: 4})

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				code, body := post(t, srv, "/op",
					fmt.Sprintf(`{"op":"put","key":"k%d","val":"c%d-%d"}`, i%4, c, i))
				switch code {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					if !strings.Contains(body, "closed") {
						errs <- fmt.Sprintf("503 without ErrClosed: %q", body)
					}
					return
				default:
					errs <- fmt.Sprintf("unexpected status %d: %q", code, body)
					return
				}
			}
		}(c)
	}
	close(start)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// After the drain, /op reports closed and /stats still serves.
	code, _ := post(t, srv, "/op", `{"op":"get","key":"a"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("op after close = %d, want 503", code)
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after close: %v %v", resp, err)
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Audit.Violations != 0 {
		t.Fatalf("audit violations after drain: %v", st.Audit.ViolationSamples)
	}
}

// TestMetricsEndpoint: /metrics serves a Prometheus text exposition whose
// counters reflect the traffic just served.
func TestMetricsEndpoint(t *testing.T) {
	srv, store := testServer(t, service.Config{Shards: 2})
	defer store.Close()

	post(t, srv, "/op", `{"op":"put","key":"a","val":"1"}`)
	post(t, srv, "/op", `{"op":"get","key":"a"}`)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q, want prometheus 0.0.4 exposition", ct)
	}
	for _, want := range []string{
		"# TYPE service_ops_total counter",
		`service_ops_total{kind="put"} 1`,
		`service_ops_total{kind="get"} 1`,
		"# TYPE service_op_latency_ns histogram",
		"service_queue_depth{",
		"service_inflight 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestConfigEndpoint: GET returns the live tunables; POST patches them
// (absent fields keep their value); invalid patches are rejected with 400
// and change nothing.
func TestConfigEndpoint(t *testing.T) {
	srv, store := testServer(t, service.Config{Shards: 1, QueueDepth: 32, MaxBatch: 8})
	defer store.Close()

	resp, err := http.Get(srv.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	var tun service.Tunables
	if err := json.NewDecoder(resp.Body).Decode(&tun); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tun.MaxBatch != 8 || tun.QueueDepth != 32 {
		t.Fatalf("GET /config = %+v, want boot tunables", tun)
	}

	// Partial patch: only max_batch stated, the rest must survive.
	code, body := post(t, srv, "/config", `{"max_batch": 4}`)
	if code != http.StatusOK {
		t.Fatalf("patch = %d %q", code, body)
	}
	got := store.Tunables()
	if got.MaxBatch != 4 || got.QueueDepth != 32 {
		t.Fatalf("after patch: %+v, want max_batch=4 queue_depth=32", got)
	}

	// Invalid patches: rejected, nothing changes.
	for _, bad := range []string{
		`{"queue_depth": 33}`, // above boot capacity
		`{"max_batch": 0}`,
		`{"audit_sample": 2}`,
		`{"que_depth": 16}`, // typo: unknown field must not silently no-op
		`{not json`,
	} {
		code, body = post(t, srv, "/config", bad)
		if code != http.StatusBadRequest {
			t.Errorf("patch %q = %d %q, want 400", bad, code, body)
		}
	}
	if store.Tunables() != got {
		t.Fatalf("rejected patch mutated tunables: %+v", store.Tunables())
	}
}

// TestConfigReloadMidLoad patches the tunables while traffic is in flight:
// the swap is atomic, every op completes, and the audit stays clean.
func TestConfigReloadMidLoad(t *testing.T) {
	srv, store := testServer(t, service.Config{
		Shards: 2, WorkersPerShard: 2, QueueDepth: 32, MaxBatch: 8,
		Audit: service.AuditConfig{WindowOps: 8},
	})

	var wg sync.WaitGroup
	const clients, ops = 4, 150
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				code, body := post(t, srv, "/op",
					fmt.Sprintf(`{"op":"put","key":"k%d","val":"c%d-%d"}`, i%5, c, i))
				if code != http.StatusOK {
					t.Errorf("op under reload = %d %q", code, body)
					return
				}
			}
		}(c)
	}
	for _, patch := range []string{
		`{"max_batch": 1}`, `{"queue_depth": 2}`,
		`{"audit_sample": 0.5}`, `{"max_batch": 16, "queue_depth": 32}`,
	} {
		if code, body := post(t, srv, "/config", patch); code != http.StatusOK {
			t.Errorf("mid-load patch %q = %d %q", patch, code, body)
		}
	}
	wg.Wait()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.TotalOps != clients*ops {
		t.Fatalf("TotalOps = %d, want %d", st.TotalOps, clients*ops)
	}
	if st.Audit.Violations != 0 {
		t.Fatalf("audit violations under reload: %v", st.Audit.ViolationSamples)
	}
}

// TestReloadFromFile: the SIGHUP path — a tunables patch file is applied
// over the live tunables, and a bad file is rejected without effect.
func TestReloadFromFile(t *testing.T) {
	store := service.New(service.Config{Shards: 1, QueueDepth: 16, MaxBatch: 8})
	defer store.Close()

	path := t.TempDir() + "/tunables.json"
	if err := os.WriteFile(path, []byte(`{"max_batch": 2, "audit_sample": 0.25}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tun, err := reloadFromFile(store, path)
	if err != nil {
		t.Fatalf("reload from file: %v", err)
	}
	if tun.MaxBatch != 2 || tun.AuditSample != 0.25 || tun.QueueDepth != 16 {
		t.Fatalf("applied tunables = %+v", tun)
	}

	if err := os.WriteFile(path, []byte(`{"queue_depth": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reloadFromFile(store, path); err == nil {
		t.Fatal("out-of-range file accepted")
	}
	if _, err := reloadFromFile(store, path+".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
	if got := store.Tunables(); got.MaxBatch != 2 || got.QueueDepth != 16 {
		t.Fatalf("failed reloads mutated tunables: %+v", got)
	}
}
