package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterStripesMerge(t *testing.T) {
	r := NewRegistry()
	c := r.CounterStriped("ops_total", "ops", nil, 8)
	for s := 0; s < 20; s++ { // stripes wrap past the cell count
		c.AddAt(s, int64(s))
	}
	c.Inc()
	c.Add(5)
	want := int64(190 + 1 + 5)
	if got := c.Value(); got != want {
		t.Fatalf("Value() = %d, want %d", got, want)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c", nil)
	c.Add(-3)
	c.AddAt(0, -1)
	if got := c.Value(); got != 0 {
		t.Fatalf("negative adds must be ignored, got %d", got)
	}
}

func TestGaugeUpDown(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeStriped("inflight", "in flight", nil, 4)
	g.AddAt(0, 10)
	g.AddAt(1, 5)
	g.AddAt(0, -7)
	if got := g.Value(); got != 8 {
		t.Fatalf("Value() = %d, want 8", got)
	}
	u := r.Gauge("level", "level", nil)
	u.Set(42)
	u.Add(-2)
	if got := u.Value(); got != 40 {
		t.Fatalf("Value() = %d, want 40", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", nil, []int64{10, 100, 1000})
	for _, v := range []int64{-5, 0, 10, 11, 100, 500, 1000, 1001, 1 << 40} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// -5 clamps to 0; bounds are inclusive upper edges.
	wantCounts := []int64{3, 2, 2, 2} // <=10:{-5,0,10} <=100:{11,100} <=1000:{500,1000} +Inf:{1001,1<<40}
	for i, w := range wantCounts {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 9 {
		t.Fatalf("Count = %d, want 9", snap.Count)
	}
	wantSum := int64(0 + 0 + 10 + 11 + 100 + 500 + 1000 + 1001 + 1<<40)
	if snap.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", snap.Sum, wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", nil, Pow2Bounds(0, 10))
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	// 100 observations at 3 (bucket <=4), 1 at 700 (bucket <=1024).
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	h.Observe(700)
	snap := h.Snapshot()
	if got := snap.Quantile(0.5); got != 4 {
		t.Fatalf("p50 = %d, want 4 (bucket upper bound)", got)
	}
	if got := snap.Quantile(0.999); got != 1024 {
		t.Fatalf("p999 = %d, want 1024", got)
	}
	// Quantile is conservative: never below the true value's bucket bound.
	if got := snap.Quantile(1.0); got != 1024 {
		t.Fatalf("p100 = %d, want 1024", got)
	}
}

// TestSnapshotMeanAndMerge: Mean is sum/count (0 when empty), and merging
// the snapshots of two same-bounds histograms equals one histogram that saw
// both streams — including the +Inf bucket — without aliasing the sources.
func TestSnapshotMeanAndMerge(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("a", "a", nil, Pow2Bounds(0, 4))
	b := r.Histogram("b", "b", nil, Pow2Bounds(0, 4))
	both := r.Histogram("both", "both", nil, Pow2Bounds(0, 4))
	if got := a.Snapshot().Mean(); got != 0 {
		t.Fatalf("empty Mean = %v, want 0", got)
	}
	for _, v := range []int64{1, 3, 3} {
		a.Observe(v)
		both.Observe(v)
	}
	for _, v := range []int64{3, 16, 1000} {
		b.Observe(v)
		both.Observe(v)
	}
	if got, want := b.Snapshot().Mean(), float64(3+16+1000)/3; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	var merged HistogramSnapshot // the view over zero registries
	if merged.Mean() != 0 || merged.Quantile(0.5) != 0 {
		t.Fatalf("zero snapshot: mean %v p50 %d, want 0", merged.Mean(), merged.Quantile(0.5))
	}
	sa := a.Snapshot()
	merged.Merge(sa)
	merged.Merge(b.Snapshot())
	if want := both.Snapshot(); !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged = %+v, want %+v", merged, want)
	}
	if merged.Counts[len(merged.Counts)-1] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1 (counts %v)", merged.Counts[len(merged.Counts)-1], merged.Counts)
	}
	if !reflect.DeepEqual(sa, a.Snapshot()) {
		t.Fatalf("Merge wrote through to its first source: %+v", sa)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging different bucket families did not panic")
		}
	}()
	merged.Merge(r.Histogram("c", "c", nil, Pow2Bounds(0, 5)).Snapshot())
}

// TestHistogramConcurrentRecording hammers one histogram from many
// goroutines across its stripes (run under -race in CI) and checks the
// merged totals are exact: recording is atomic per cell and Snapshot merges
// every stripe, so no observation may be lost.
func TestHistogramConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramStriped("lat", "latency", nil, Pow2Bounds(0, 20), 8)
	c := r.CounterStriped("n_total", "n", nil, 8)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.ObserveAt(w, int64(i%4096))
				c.IncAt(w)
			}
		}(w)
	}
	// Concurrent scrapes must not disturb the totals (and must not race).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			var sb strings.Builder
			if err := r.WriteProm(&sb); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Fatalf("Count = %d, want %d", got, workers*perWorker)
	}
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestRecordPathZeroAllocs is the regression lock for the hot path the
// BenchmarkMetrics* record benchmarks measure: a counter increment or add, a
// gauge add and a histogram observe must not allocate.
func TestRecordPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	plain := r.Counter("calls_total", "calls", nil)
	c := r.CounterStriped("ops_total", "ops", Labels{{"kind", "put"}}, 8)
	g := r.GaugeStriped("inflight", "in flight", nil, 4)
	h := r.HistogramStriped("lat", "latency", nil, Pow2Bounds(8, 36), 8)
	if n := testing.AllocsPerRun(1000, func() {
		plain.Inc()
		c.AddAt(3, 1)
		g.AddAt(3, 1)
		h.ObserveAt(3, 12345)
		g.AddAt(3, -1)
	}); n != 0 {
		t.Fatalf("record path allocates %.1f allocs/op, want 0", n)
	}
}

func TestPow2Bounds(t *testing.T) {
	b := Pow2Bounds(3, 6)
	want := []int64{8, 16, 32, 64}
	if len(b) != len(want) {
		t.Fatalf("bounds %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds %v, want %v", b, want)
		}
	}
	mustPanic(t, func() { Pow2Bounds(5, 3) })
	mustPanic(t, func() { Pow2Bounds(0, 63) })
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("good_total", "g", Labels{{"a", "x"}})
	mustPanic(t, func() { r.Counter("good_total", "g", Labels{{"a", "x"}}) }) // dup series
	mustPanic(t, func() { r.Gauge("good_total", "g", Labels{{"a", "y"}}) })   // type clash
	mustPanic(t, func() { r.Counter("good_total", "other help", Labels{{"a", "y"}}) })
	mustPanic(t, func() { r.Counter("0bad", "g", nil) })                            // bad name
	mustPanic(t, func() { r.Counter("ok_total", "g", Labels{{"le", "x"}}) })        // reserved label
	mustPanic(t, func() { r.Counter("ok2_total", "g", Labels{{"bad-name", "x"}}) }) // bad label
	mustPanic(t, func() { r.Counter("ok3_total", "g", Labels{{"a", "x"}, {"a", "y"}}) })
	mustPanic(t, func() { r.Histogram("h", "h", nil, nil) })            // no bounds
	mustPanic(t, func() { r.Histogram("h", "h", nil, []int64{5, 5}) })  // not increasing
	mustPanic(t, func() { r.ExpandFunc("bad", "histogram", "h", nil) }) // bad dynamic type
	r.ExpandFunc("dyn_total", "counter", "d", func(func(Labels, float64)) {})
	mustPanic(t, func() { r.Counter("dyn_total", "d", nil) }) // static series on dynamic family
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
