package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/service"
)

func stream(t *tables, seed int64, widx, client, n int) []service.Op {
	ops := make([]service.Op, n)
	newGen(t, seed, widx, client).fill(ops)
	return ops
}

// The op stream is a pure function of (seed, workload, client): the same
// triple reproduces it, and changing any one of the three changes it.
func TestStreamIsAFunctionOfSeedWorkloadClient(t *testing.T) {
	tab := newTables()
	const n = 2000
	for widx, w := range workloads {
		base := stream(tab, 7, widx, 0, n)
		if !slices.Equal(base, stream(tab, 7, widx, 0, n)) {
			t.Errorf("%s: the same seed, workload and client gave two streams", w.name)
		}
		if slices.Equal(base, stream(tab, 8, widx, 0, n)) {
			t.Errorf("%s: seeds 7 and 8 gave one stream", w.name)
		}
		if slices.Equal(base, stream(tab, 7, widx, 1, n)) {
			t.Errorf("%s: clients 0 and 1 gave one stream", w.name)
		}
		if other := (widx + 2) % len(workloads); slices.Equal(base, stream(tab, 7, other, 0, n)) {
			t.Errorf("%s and %s gave one stream", w.name, workloads[other].name)
		}
		seen := map[uint64]bool{}
		for _, op := range append(base, stream(tab, 7, widx, 1, n)...) {
			if op.ID == 0 || seen[op.ID] {
				t.Fatalf("%s: op ID %d is zero or repeats", w.name, op.ID)
			}
			seen[op.ID] = true
		}
	}
}

// fakeClient answers every op correctly and keeps what it was handed.
type fakeClient struct{ got []service.Op }

func (f *fakeClient) Do(_ context.Context, op service.Op) (service.Result, error) {
	f.got = append(f.got, op)
	return service.Result{Val: op.Key + "=v", OK: true}, nil
}

func (f *fakeClient) DoBatch(ctx context.Context, ops []service.Op) ([]service.Result, error) {
	res := make([]service.Result, len(ops))
	for i, op := range ops {
		res[i], _ = f.Do(ctx, op)
	}
	return res, nil
}

// The system under test is handed the generator's ops and nothing else: what
// a client receives over a window is exactly a prefix of the stream.
func TestSystemSeesOnlyGeneratedOps(t *testing.T) {
	tab := newTables()
	for widx, w := range workloads {
		var f fakeClient
		tally := drive(&f, newGen(tab, 3, widx, 1), w, nil, 20*time.Millisecond)
		if tally.err != nil || tally.failed != 0 || tally.verified != int64(len(f.got)) || len(f.got) == 0 {
			t.Fatalf("%s: drive verified %d of %d ops, %d failed, err %v", w.name, tally.verified, len(f.got), tally.failed, tally.err)
		}
		if !slices.Equal(f.got, stream(tab, 3, widx, 1, len(f.got))) {
			t.Errorf("%s: the client was handed something other than the generated stream", w.name)
		}
	}
}

func TestVerified(t *testing.T) {
	get := service.Op{Kind: service.OpGet, Key: "k000001"}
	put := service.Op{Kind: service.OpPut, Key: "k000001", Val: "k000001=a"}
	cas := service.Op{Kind: service.OpCAS, Key: "k000001", Old: "k000001=a", Val: "k000001=b"}
	for _, c := range []struct {
		op   service.Op
		res  service.Result
		want bool
	}{
		{get, service.Result{Val: "k000001=a", OK: true}, true},
		{get, service.Result{Val: "k000002=a", OK: true}, false}, // another key's value
		{get, service.Result{}, false},                           // a preloaded key is never missing
		{put, service.Result{OK: true}, true},
		{put, service.Result{}, false},
		{cas, service.Result{OK: true}, true},
		{cas, service.Result{Val: "k000001=c"}, true}, // lost to the key's current value
		{cas, service.Result{Val: "k000002=c"}, false},
		{cas, service.Result{}, false},
	} {
		if got := verified(c.op, c.res); got != c.want {
			t.Errorf("verified(%v, %+v) = %v, want %v", c.op.Kind, c.res, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child inside", []span{{start: 120, end: 150}}, 70},
		{"two apart", []span{{start: 110, end: 120}, {start: 180, end: 190}}, 80},
		{"overlap counted once", []span{{start: 110, end: 150}, {start: 140, end: 160}}, 50},
		{"nested counted once", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"clipped to the parent", []span{{start: 50, end: 120}, {start: 190, end: 300}}, 70},
		{"outside the parent", []span{{start: 0, end: 100}, {start: 200, end: 250}}, 100},
		{"covers the parent", []span{{start: 0, end: 300}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// link matches a child to the root span with its trace id, and selfTimes
// subtracts it; a child whose trace has no root stays unlinked.
func TestLinkAndSelfTimes(t *testing.T) {
	spans := []span{
		{name: layerWire, trace: 1, start: 0, end: 100, parent: -1},
		{name: layerService, trace: 1, start: 30, end: 70, parent: -1},
		{name: layerWire, trace: 2, start: 100, end: 150, parent: -1},
		{name: layerService, trace: 9, start: 0, end: 10, parent: -1},
	}
	link(spans, layerWire)
	if got := []int32{spans[0].parent, spans[1].parent, spans[2].parent, spans[3].parent}; !slices.Equal(got, []int32{-1, 0, -1, -1}) {
		t.Errorf("parents %v, want [-1 0 -1 -1]", got)
	}
	if got := selfTimes(spans, layerWire); !slices.Equal(got, []int64{50, 60}) {
		t.Errorf("wire self times %v, want [50 60]", got)
	}
	if got := durations(spans, layerService); !slices.Equal(got, []int64{10, 40}) {
		t.Errorf("service durations %v, want [10 40]", got)
	}
}

// A recorder at capacity counts what it drops and keeps what it has.
func TestRecorderDropsAtCapacity(t *testing.T) {
	r := newRecorder(2)
	if r.on() || (*recorder)(nil).on() {
		t.Fatal("a new or nil recorder is on")
	}
	now := time.Now()
	for i := 0; i < 5; i++ {
		r.add(layerWire, uint64(i+1), now, now.Add(time.Microsecond))
	}
	kept, dropped := r.recorded()
	if len(kept) != 2 || dropped != 3 || kept[1].trace != 2 || kept[1].end-kept[1].start != 1000 {
		t.Errorf("kept %+v, dropped %d", kept, dropped)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it, and its index is never past the data.
func TestTail(t *testing.T) {
	ramp := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}
	for _, c := range []struct {
		n, wantPct int
		wantV      int64
		wantBeyond int
	}{
		{1000, 99, 989, 10},
		{999, 95, 949, 49}, // nine samples beyond p99 are too few
		{200, 95, 189, 10},
		{199, 90, 179, 19},
		{40, 75, 29, 10},
		{39, 50, 19, 19},
		{2, 50, 0, 1},
		{1, 50, 0, 0},
	} {
		pct, v, beyond := tail(ramp(c.n))
		if pct != c.wantPct || v != c.wantV || beyond != c.wantBeyond {
			t.Errorf("n=%d: p%d = %d with %d beyond, want p%d = %d with %d", c.n, pct, v, beyond, c.wantPct, c.wantV, c.wantBeyond)
		}
	}
	if v := median(ramp(1)); v != 0 {
		t.Errorf("median of one sample is %d", v)
	}
	if v := median(ramp(5)); v != 2 {
		t.Errorf("median of 0..4 is %d", v)
	}
}

func TestPromSum(t *testing.T) {
	const text = `# HELP cluster_messages_sent_total replication messages sent by kind
# TYPE cluster_messages_sent_total counter
cluster_messages_sent_total{kind="append"} 40
cluster_messages_sent_total{kind="done, late"} 2
cluster_messages_sent_total_extra 1000
cluster_route_retries_total 7
cluster_lag_seconds 1.5e-3
`
	for family, want := range map[string]float64{
		"cluster_messages_sent_total": 42,
		"cluster_route_retries_total": 7,
		"cluster_lag_seconds":         0.0015,
		"cluster_absent_total":        0,
	} {
		if got, err := promSum(text, family); err != nil || got != want {
			t.Errorf("%s: %v, %v; want %v", family, got, err, want)
		}
	}
	if _, err := promSum("cluster_x_total{a=\"b\"} many\n", "cluster_x_total"); err == nil {
		t.Error("a value that is not a number was accepted")
	}
}

// quartiles agrees with Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		if q1, q2, q3 := quartiles(c.v); q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// BENCHMARK.json names the workloads and metrics this program runs and
// prints, with the same units, and every bound is one the contract allows.
func TestSpecMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name  string
		Unit  string
		Bound float64
	}
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the spec, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in the spec, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		what string
		spec []named
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("%s: %d metrics in the spec, %d in the program", c.what, len(c.spec), len(c.defs))
		}
		for i, m := range c.defs {
			if c.spec[i].Name != m.name || c.spec[i].Unit != m.unit {
				t.Errorf("%s[%d] is %s (%s) in the spec, %s (%s) in the program", c.what, i, c.spec[i].Name, c.spec[i].Unit, m.name, m.unit)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
