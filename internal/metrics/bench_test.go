package metrics

import (
	"io"
	"testing"
)

// The record-path benchmarks measure the serving hot path's counters,
// gauges and histogram observes, which cost 0 allocs/op;
// TestRecordPathZeroAllocs holds that exactly.

func BenchmarkMetricsCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "bench", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkMetricsCounterAddAt(b *testing.B) {
	r := NewRegistry()
	c := r.CounterStriped("bench_total", "bench", nil, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AddAt(i&7, 1)
	}
}

func BenchmarkMetricsCounterParallel(b *testing.B) {
	r := NewRegistry()
	c := r.CounterStriped("bench_total", "bench", nil, 16)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		stripe := 0
		for pb.Next() {
			c.AddAt(stripe, 1)
			stripe++
		}
	})
}

func BenchmarkMetricsGaugeAddAt(b *testing.B) {
	r := NewRegistry()
	g := r.GaugeStriped("bench_inflight", "bench", nil, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.AddAt(i&7, 1)
		g.AddAt(i&7, -1)
	}
}

func BenchmarkMetricsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.HistogramStriped("bench_lat", "bench", nil, Pow2Bounds(8, 36), 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveAt(i&7, int64(i)<<6)
	}
}

func BenchmarkMetricsScrape(b *testing.B) {
	r := NewRegistry()
	for _, kind := range []string{"put", "get", "cas"} {
		c := r.Counter("ops_total", "ops", Labels{{"kind", kind}})
		c.Add(12345)
		h := r.Histogram("lat", "latency", Labels{{"kind", kind}}, Pow2Bounds(8, 36))
		for i := 0; i < 64; i++ {
			h.Observe(int64(i) << 10)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WriteProm(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
