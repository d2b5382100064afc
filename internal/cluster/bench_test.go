package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// BenchmarkClusterReplicate measures the replicated-write path of a free
// 3-node loopback cluster: each op is routed to the shard owner, appended,
// streamed to both followers, quorum-acked and answered. ns/op is the full
// client-visible commit latency.
func BenchmarkClusterReplicate(b *testing.B) {
	nodes := startFreeCluster(b, 3, 1)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	ctx := context.Background()
	// Route through the owner's own front end: the replication fan-out to
	// the followers is the measured path.
	if _, err := nodes[0].Do(ctx, service.Op{Kind: service.OpPut, Key: "warm", Val: "x", ID: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := service.Op{Kind: service.OpPut, Key: "k", Val: "v", ID: uint64(i + 2)}
		if _, err := nodes[0].Do(ctx, op); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
	}
}

// BenchmarkClusterReplicateBatched measures the pipelined-and-batched
// replicated-write path: a free 3-node cluster with a 32-entry in-flight
// window and a 200µs owner batch window, driven by 8 concurrent clients
// submitting multi-op batches. Each benchmark iteration is one op; ops/s
// is the committed-write throughput, the headline the stop-and-wait
// BenchmarkClusterReplicate number is compared against.
func BenchmarkClusterReplicateBatched(b *testing.B) {
	for _, batch := range []int{8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			nodes := startFreeClusterCfg(b, 3, 1, func(c *Config) {
				c.MaxInflightEntries = 32
				c.BatchWindow = (200 * time.Microsecond).Nanoseconds()
			})
			defer func() {
				for _, n := range nodes {
					n.Close()
				}
			}()
			ctx := context.Background()
			if _, err := nodes[0].Do(ctx, service.Op{Kind: service.OpPut, Key: "warm", Val: "x", ID: 1}); err != nil {
				b.Fatal(err)
			}
			const workers = 8
			calls := (b.N + batch - 1) / batch
			var next atomic.Int64
			var ids atomic.Uint64
			ids.Store(1) // 1 was the warm-up op
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ops := make([]service.Op, 0, batch)
					for {
						c := next.Add(1) - 1
						if c >= int64(calls) {
							return
						}
						n := batch
						if rest := b.N - int(c)*batch; rest < n {
							n = rest
						}
						ops = ops[:0]
						for i := 0; i < n; i++ {
							ops = append(ops, service.Op{
								Kind: service.OpPut, Key: fmt.Sprintf("k%d", i%16),
								Val: "v", ID: ids.Add(1),
							})
						}
						if _, err := nodes[0].DoBatch(ctx, ops); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if elapsed := b.Elapsed(); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
			}
		})
	}
}

// BenchmarkFailover measures failover latency end to end: a fresh 3-node
// cluster per iteration, the owner killed, and the clock stopped when a
// client op routed through a survivor is answered by the new owner.
func BenchmarkFailover(b *testing.B) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nodes := startFreeCluster(b, 3, 1)
		if _, err := nodes[1].Do(ctx, service.Op{Kind: service.OpPut, Key: "k", Val: "pre", ID: 1}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		nodes[0].Close()
		if _, err := nodes[1].Do(ctx, service.Op{Kind: service.OpPut, Key: "k", Val: fmt.Sprintf("post%d", i), ID: 2}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, n := range nodes[1:] {
			n.Close()
		}
		// Let the kernel reap the listeners before the next iteration
		// re-binds fresh ports.
		time.Sleep(time.Millisecond)
		b.StartTimer()
	}
}

// BenchmarkFailoverPipelined is BenchmarkFailover with the replication
// window pipelined and batched — the election and re-route latency must
// not regress when the dying owner leaves a 32-entry window behind.
func BenchmarkFailoverPipelined(b *testing.B) {
	ctx := context.Background()
	pipelined := func(c *Config) {
		c.MaxInflightEntries = 32
		c.BatchWindow = (200 * time.Microsecond).Nanoseconds()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nodes := startFreeClusterCfg(b, 3, 1, pipelined)
		// Leave uncommitted work behind: fire a burst through the doomed
		// owner right before the kill so the window is non-trivially full.
		for j := 0; j < 16; j++ {
			if _, err := nodes[0].Do(ctx, service.Op{Kind: service.OpPut, Key: "k", Val: "pre", ID: uint64(j + 1)}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		nodes[0].Close()
		if _, err := nodes[1].Do(ctx, service.Op{Kind: service.OpPut, Key: "k", Val: fmt.Sprintf("post%d", i), ID: 100}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, n := range nodes[1:] {
			n.Close()
		}
		time.Sleep(time.Millisecond)
		b.StartTimer()
	}
}
