package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// The codec benchmarks are the transport's regression discipline: encode
// and decode must stay at 0 allocs/op (pinned hard by
// TestWireCodecZeroAllocs), exactly like the internal/sched step path.

var benchOp = service.Op{Kind: service.OpPut, Key: "k00042", Val: "put-123456", ID: 42}

func benchBatch(n int) []service.Op {
	ops := make([]service.Op, n)
	for i := range ops {
		ops[i] = service.Op{Kind: service.OpPut, Key: fmt.Sprintf("k%05d", i%256),
			Val: fmt.Sprintf("put-%d", i), ID: uint64(i + 1)}
	}
	return ops
}

func BenchmarkWireEncodeOp(b *testing.B) {
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendOpFrame(buf[:0], uint64(i), benchOp)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeOp(b *testing.B) {
	frame, err := AppendOpFrame(nil, 1, benchOp)
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[HeaderSize:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op, n, err := DecodeOp(payload)
		if err != nil || n != len(payload) || op.Kind != service.OpPut {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeBatch64(b *testing.B) {
	ops := benchBatch(64)
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendBatchFrame(buf[:0], uint64(i), ops)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeBatch64(b *testing.B) {
	frame, err := AppendBatchFrame(nil, 1, benchBatch(64))
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[HeaderSize:]
	ops := make([]service.Op, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		ops, err = DecodeBatch(payload, ops[:0])
		if err != nil || len(ops) != 64 {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeResults64(b *testing.B) {
	results := make([]service.Result, 64)
	for i := range results {
		results[i] = service.Result{OK: true, Val: "put-123456"}
	}
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendResultsFrame(buf[:0], uint64(i), results)
	}
}

func BenchmarkWireDecodeResults64(b *testing.B) {
	results := make([]service.Result, 64)
	for i := range results {
		results[i] = service.Result{OK: true, Val: "put-123456"}
	}
	frame := AppendResultsFrame(nil, 1, results)
	payload := frame[HeaderSize:]
	dst := make([]service.Result, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = DecodeResults(payload, dst[:0])
		if err != nil || len(dst) != 64 {
			b.Fatal(err)
		}
	}
}

// TestWireCodecZeroAllocs is the hard in-repo gate behind the benchmark
// numbers: encode and decode of op, batch, and result payloads allocate
// nothing when the caller reuses buffers, CI-enforced alongside the sched
// and metrics zero-alloc regressions.
func TestWireCodecZeroAllocs(t *testing.T) {
	ops := benchBatch(64)
	results := make([]service.Result, 64)
	for i := range results {
		results[i] = service.Result{OK: true, Val: "v"}
	}
	encBuf := make([]byte, 0, 8192)
	opFrame, err := AppendOpFrame(nil, 1, benchOp)
	if err != nil {
		t.Fatal(err)
	}
	batchFrame, err := AppendBatchFrame(nil, 1, ops)
	if err != nil {
		t.Fatal(err)
	}
	resFrame := AppendResultsFrame(nil, 1, results)
	decOps := make([]service.Op, 0, 64)
	decRes := make([]service.Result, 0, 64)

	cases := map[string]func(){
		"encode-op":      func() { encBuf, _ = AppendOpFrame(encBuf[:0], 1, benchOp) },
		"encode-batch":   func() { encBuf, _ = AppendBatchFrame(encBuf[:0], 1, ops) },
		"encode-results": func() { encBuf = AppendResultsFrame(encBuf[:0], 1, results) },
		"decode-op":      func() { _, _, _ = DecodeOp(opFrame[HeaderSize:]) },
		"decode-batch":   func() { decOps, _ = DecodeBatch(batchFrame[HeaderSize:], decOps[:0]) },
		"decode-results": func() { decRes, _ = DecodeResults(resFrame[HeaderSize:], decRes[:0]) },
		"parse-header":   func() { _, _ = ParseHeader(opFrame) },
	}
	for name, fn := range cases {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, avg)
		}
	}
}

// BenchmarkWireLoopback measures end-to-end serving throughput over the
// wire protocol on loopback TCP: pipelined client goroutines issuing
// batch frames against a live store, the wire's batch rung (the one-op
// rung is BenchmarkWireOneOp).
func BenchmarkWireLoopback(b *testing.B) {
	for _, cfg := range []struct{ pipeline, batch int }{{4, 64}, {4, 256}} {
		b.Run(fmt.Sprintf("pipe=%d/batch=%d", cfg.pipeline, cfg.batch), func(b *testing.B) {
			benchLoopback(b, cfg.pipeline, cfg.batch)
		})
	}
}

func benchLoopback(b *testing.B, pipeline, batch int) {
	store := service.New(service.Config{Shards: 4, Audit: service.AuditConfig{SampleFraction: 0.05}})
	srv := NewServer(store, ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		store.Close()
	}()

	conn, err := Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	per := b.N / pipeline
	for w := 0; w < pipeline; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := make([]service.Op, batch)
			results := make([]service.Result, 0, batch)
			done := 0
			for done < per {
				n := batch
				if rem := per - done; rem < n {
					n = rem
				}
				for i := 0; i < n; i++ {
					ops[i] = service.Op{Kind: service.OpPut,
						Key: fmt.Sprintf("k%05d", (done+i)%256), Val: "v"}
				}
				var err error
				results, err = conn.DoBatch(ops[:n], results[:0])
				if err != nil || len(results) != n {
					b.Errorf("batch: %v", err)
					return
				}
				done += n
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(per*pipeline)/elapsed.Seconds(), "ops/s")
}

// servedConfig is cmd/served's default store configuration, audit on, with
// an audit mailbox that holds a whole measurement: on AllocsPerRun's one P
// the auditor proc can starve, and a record dropped by a full mailbox is a
// gap that parks its successors in a map (see TestDoBatchAllocBudget).
func servedConfig() service.Config {
	return service.Config{
		Shards:          4,
		WorkersPerShard: 2,
		QueueDepth:      1024,
		MaxBatch:        64,
		Audit:           service.AuditConfig{WindowOps: 16, SampleFraction: 1, QueueDepth: 1 << 16},
		Supervise:       service.SuperviseConfig{Enabled: true, MaxRestarts: 8},
	}
}

// startOneOp boots a wire server on loopback over a store with served's
// configuration and dials conns connections to it. Cleanup shuts both down.
func startOneOp(tb testing.TB, conns int) (*service.Store, []*Conn) {
	tb.Helper()
	store := service.New(servedConfig())
	srv := NewServer(store, ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(lis)
	cs := make([]*Conn, conns)
	for i := range cs {
		if cs[i], err = Dial(lis.Addr().String()); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(func() {
		for _, c := range cs {
			c.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		store.Close()
	})
	return store, cs
}

// oneOpKeys is the key space of the one-op rung: small enough that every
// key's audit window fills during warm-up.
var oneOpKeys = func() []string {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	return keys
}()

// oneOp is the i-th op of the one-op rung: a get, put or cas on a key.
func oneOp(i int) service.Op {
	key := oneOpKeys[i%len(oneOpKeys)]
	switch i % 10 {
	case 0, 1, 2, 3, 4, 5:
		return service.Op{Kind: service.OpGet, Key: key}
	case 6:
		return service.Op{Kind: service.OpCAS, Key: key, Old: "v", Val: "w"}
	default:
		return service.Op{Kind: service.OpPut, Key: key, Val: "v"}
	}
}

// BenchmarkWireOneOp is the one-op round trip the wire-single workload
// drives: 2 connections, one op frame per call, served's store
// configuration. Its alloc profile attributes the round trip's garbage by
// site:
//
//	go test -run x -bench WireOneOp -benchmem -memprofile m.out ./internal/wire/
//	go tool pprof -sample_index=alloc_objects -top m.out
func BenchmarkWireOneOp(b *testing.B) {
	_, conns := startOneOp(b, 2)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			for i := int(next.Add(1)); i <= b.N; i = int(next.Add(1)) {
				if _, err := c.Do(oneOp(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestWireRoundTripAllocBudget pins what one round trip allocates, client,
// server and store together, in the configuration cmd/served runs. Do is
// the client's response payload and the server's op payload, both kept by
// their readers; a 1-op DoBatch adds the server's decoded op slice and the
// store's result slice. The budgets are the counts measured once the store
// recycled its submissions and batches; before, they were 5 and 7, the
// store's submission, its channel and the grant window's batch on top, and
// 13 and 15 before the round trip stopped allocating its call, its handler
// goroutine, its encode buffers and its log cell.
func TestWireRoundTripAllocBudget(t *testing.T) {
	store, conns := startOneOp(t, 1)
	c := conns[0]
	results := make([]service.Result, 0, 1)
	var i int
	for _, tc := range []struct {
		name   string
		budget float64
		call   func()
	}{
		{"Do", 2, func() {
			i++
			if _, err := c.Do(oneOp(i)); err != nil {
				t.Fatal(err)
			}
		}},
		{"1-op DoBatch", 4, func() {
			i++
			var err error
			if results, err = c.DoBatch([]service.Op{oneOp(i)}, results[:0]); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		// Materialise every key and fill every key's audit window, and let
		// the auditor take them, so the count is the steady state.
		for n := 0; n < 16*len(oneOpKeys); n++ {
			tc.call()
		}
		for store.Stats().Audit.WindowsChecked < int64(len(oneOpKeys)) {
			time.Sleep(time.Millisecond)
		}
		if got := testing.AllocsPerRun(500, tc.call); got > tc.budget {
			t.Errorf("%s allocates %.2f objects per round trip, budget %.0f", tc.name, got, tc.budget)
		} else {
			t.Logf("%s: %.2f objects per round trip (budget %.0f)", tc.name, got, tc.budget)
		}
	}
	if st := store.Stats().Audit; st.Violations != 0 {
		t.Errorf("audit %+v, want no violation", st)
	}
}
