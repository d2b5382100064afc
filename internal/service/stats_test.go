package service

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// promHist is one histogram series as a scraper sees it: cumulative bucket
// counts in exposition order (+Inf last) with their le bounds, sum, count.
type promHist struct {
	le         []string
	cum        []int64
	sum, count int64
}

// mean and quantile restate the registry's summary rules over the scraped
// text alone: mean = sum/count; the q-quantile is the le bound of the first
// bucket whose cumulative count exceeds floor(q*count), +Inf reporting the
// last finite bound.
func (h promHist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

func (h promHist) quantile(t *testing.T, q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := min(int64(q*float64(h.count)), h.count-1)
	i := 0
	for h.cum[i] <= rank {
		i++
	}
	if h.le[i] == "+Inf" {
		i--
	}
	v, err := strconv.ParseInt(h.le[i], 10, 64)
	if err != nil {
		t.Fatalf("bucket bound %q: %v", h.le[i], err)
	}
	return v
}

// parseProm reads a text exposition into plain samples (series → value)
// and histogram series (name+labels without le → promHist).
func parseProm(t *testing.T, text string) (map[string]int64, map[string]*promHist) {
	samples := map[string]int64{}
	hists := map[string]*promHist{}
	hist := func(series string) *promHist {
		if hists[series] == nil {
			hists[series] = &promHist{}
		}
		return hists[series]
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series := line[:sp]
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[series] = v
		name, labels, _ := strings.Cut(series, "{")
		if labels != "" {
			labels = "{" + labels
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			// le is always the last label (expose.go writeBucket).
			i := strings.LastIndex(labels, `le="`)
			rest := strings.TrimRight(labels[:i], ",{")
			if rest != "" {
				rest += "}"
			}
			h := hist(strings.TrimSuffix(name, "_bucket") + rest)
			h.le = append(h.le, strings.TrimSuffix(labels[i+len(`le="`):], `"}`))
			h.cum = append(h.cum, v)
		case strings.HasSuffix(name, "_sum"):
			hist(strings.TrimSuffix(name, "_sum") + labels).sum = v
		case strings.HasSuffix(name, "_count"):
			hist(strings.TrimSuffix(name, "_count") + labels).count = v
		}
	}
	return samples, hists
}

// TestStatsIsRegistryView: Stats() is a read-only view of the metrics
// registry, so after one run — mixed ops, with post-commit crashes healed
// by supervision — every count, mean and quantile in Stats() equals the
// value a scraper computes from the /metrics text of the same store, and
// the total equals the client's own count of answered ops.
func TestStatsIsRegistryView(t *testing.T) {
	fs := fault.NewSet()
	fs.Arm(FaultWorkerPostCommit, fault.Rule{Action: fault.Crash, After: 5, Count: 4})
	s := New(Config{Shards: 2, WorkersPerShard: 2, QueueDepth: 8, MaxBatch: 4,
		Audit: AuditConfig{WindowOps: 8},
		Supervise: SuperviseConfig{Enabled: true, MaxRestarts: 8,
			BackoffBase: int64(100 * time.Microsecond), BackoffCap: int64(5 * time.Millisecond)},
		Faults: fs})
	ctx := context.Background()
	var wg sync.WaitGroup
	var answered atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 14))
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", rng.IntN(8))
				ops := []Op{
					{Kind: OpKind(rng.IntN(NumOpKinds)), Key: key, Val: "v", Old: "v"},
					{Kind: OpGet, Key: key},
				}
				var err error
				if rng.IntN(2) == 0 {
					_, err = s.DoBatch(ctx, ops)
				} else {
					ops = ops[:1]
					_, err = s.Do(ctx, ops[0])
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				answered.Add(int64(len(ops)))
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	var text strings.Builder
	if err := s.Metrics().WriteProm(&text); err != nil {
		t.Fatal(err)
	}
	samples, hists := parseProm(t, text.String())

	if st.TotalOps != answered.Load() {
		t.Errorf("TotalOps = %d, clients counted %d answered ops", st.TotalOps, answered.Load())
	}
	checkSummary := func(what string, got LatencySummary, h *promHist) {
		t.Helper()
		if h == nil {
			t.Fatalf("%s: no histogram series in /metrics", what)
		}
		if got.Count != h.count || got.MeanNs != h.mean() ||
			got.P50Ns != h.quantile(t, 0.50) || got.P99Ns != h.quantile(t, 0.99) ||
			got.Hist.Count != h.count || got.Hist.Sum != h.sum {
			t.Errorf("%s: Stats n=%d mean=%v p50=%d p99=%d (hist n=%d sum=%d), /metrics n=%d sum=%d mean=%v p50=%d p99=%d",
				what, got.Count, got.MeanNs, got.P50Ns, got.P99Ns, got.Hist.Count, got.Hist.Sum,
				h.count, h.sum, h.mean(), h.quantile(t, 0.50), h.quantile(t, 0.99))
		}
	}
	var total int64
	for k := 0; k < NumOpKinds; k++ {
		kind := OpKind(k).String()
		series := fmt.Sprintf(`{kind="%s"}`, kind)
		if got, want := st.Ops[kind], samples["service_ops_total"+series]; got != want || got == 0 {
			t.Errorf("Ops[%s] = %d, service_ops_total = %d (want equal, non-zero)", kind, got, want)
		}
		total += st.Ops[kind]
		checkSummary("Latency["+kind+"]", st.Latency[kind], hists["service_op_latency_ns"+series])
	}
	if st.TotalOps != total {
		t.Errorf("TotalOps = %d, per-kind sum %d", st.TotalOps, total)
	}
	occ := hists["service_batch_occupancy"]
	if st.Batches != samples["service_batches_total"] || st.BatchSize.Count != occ.count || st.BatchSize.Sum != occ.sum {
		t.Errorf("batches: Stats %d (occupancy n=%d sum=%d), /metrics %d (n=%d sum=%d)",
			st.Batches, st.BatchSize.Count, st.BatchSize.Sum, samples["service_batches_total"], occ.count, occ.sum)
	}
	sup := st.Supervision
	if sup.Restarts != samples["service_supervision_restarts_total"] || sup.Restarts != fs.Stats()[FaultWorkerPostCommit].Acted {
		t.Errorf("restarts: Stats %d, /metrics %d, injected crashes %d", sup.Restarts,
			samples["service_supervision_restarts_total"], fs.Stats()[FaultWorkerPostCommit].Acted)
	}
	if sup.Condemned != samples["service_supervision_condemned_total"] || sup.Condemned != 0 {
		t.Errorf("condemned: Stats %d, /metrics %d, want 0", sup.Condemned, samples["service_supervision_condemned_total"])
	}
	checkSummary("Supervision.Recovery", sup.Recovery, hists["service_supervision_recovery_ns"])
	if sup.Recovery.Count == 0 {
		t.Error("crashes were injected but no recovery was observed; the comparison is vacuous")
	}
}

// TestHistOfBucketMapping pins the snapshot → sim.Histogram re-bucketing
// behind Stats: the bucket with bound 2^e is sim's Buckets[e], values under
// the first bound share its bucket, +Inf is the bucket after the last
// bound, and Max is the upper bound of the highest non-empty bucket (the
// last finite bound for +Inf).
func TestHistOfBucketMapping(t *testing.T) {
	h := metrics.NewRegistry().Histogram("h", "h", nil, metrics.Pow2Bounds(2, 4)) // 4, 8, 16, +Inf
	if got := histOf(h.Snapshot()); !reflect.DeepEqual(got, sim.Histogram{}) {
		t.Fatalf("empty snapshot → %+v, want zero", got)
	}
	// In-range values land exactly where sim.Histogram.Observe puts them.
	var direct sim.Histogram
	for _, v := range []int64{3, 4, 5, 8, 16} {
		h.Observe(v)
		direct.Observe(v)
	}
	if got := histOf(h.Snapshot()); !reflect.DeepEqual(got, direct) {
		t.Fatalf("in-range values → %+v, sim.Histogram.Observe gives %+v", got, direct)
	}
	h.Observe(1)    // below the first bound: first bucket
	h.Observe(1000) // above the last: +Inf
	want := sim.Histogram{Buckets: []int64{0, 0, 3, 2, 1, 1}, Count: 7, Sum: 1037, Max: 16}
	if got := histOf(h.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("out-of-range values → %+v, want %+v", got, want)
	}
}
