// Command loadgen drives cmd/served with configurable concurrent traffic
// and verifies, at the end of the run, that the server's online
// linearizability audit stayed clean.
//
// Two pacing modes:
//
//   - closed loop (default): each worker keeps exactly one request in
//     flight, so offered load tracks service capacity;
//   - open loop (-rate N): workers offer N ops/s in aggregate regardless of
//     latency, the arrival model of a production front end.
//
// The key popularity distribution is uniform or Zipf (-zipf s > 1 skews
// toward hot keys), the op mix is configurable (-read-pct, -cas-pct, rest
// are puts), and every worker checks response sanity. Exit status is
// non-zero on any request error or audited linearizability violation.
//
// Traffic travels over the binary protocol of docs/PROTOCOL.md (RPW1):
// -addr is the host:port of served's -wire listener, and the workers share
// -conns pipelined connections round-robin, so the per-connection pipeline
// depth is workers/conns. -batch N packs N ops into each batch frame — the
// protocol's throughput lever. loadgen waits up to 5 s for the listener to
// come up, so it can start right behind a backgrounded served; a listener
// that accepts the connection but does not answer an RPW1 ping (served's
// HTTP port, say) fails the run within seconds instead of hanging it.
//
// Saturation and server-deadline errors arrive as typed wire errors and are
// retried up to -retries times with the same client-assigned op id, which
// the server deduplicates — the loadgen thus exercises the store's
// idempotent-retry contract under real packet timing. -max-p999 asserts a
// tail-latency ceiling over every issued op (retries included), the soak
// profile's bounded-tail gate.
//
// Run with:
//
//	go run ./cmd/loadgen -addr 127.0.0.1:9090 -workers 8 -ops 50000
//	go run ./cmd/loadgen -addr 127.0.0.1:9090 -conns 2 -batch 64
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/wire"
)

type options struct {
	addr    string
	conns   int
	batch   int
	workers int
	ops     int64
	dur     time.Duration
	rate    float64
	keys    int
	zipf    float64
	readPct int
	casPct  int
	seed    int64
	retries int
	maxP999 time.Duration
	summary string
}

// runSummary is the -summary JSON artifact: the client-side ledger a
// downstream checker (scripts/smoke.sh metrics) reconciles against the
// server's /metrics counters.
type runSummary struct {
	Issued    int64 `json:"issued"`
	Errors    int64 `json:"errors"`
	Retried   int64 `json:"retried"`
	Abandoned int64 `json:"abandoned"`
	P999Ns    int64 `json:"p999_ns"`
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:9090", "host:port of cmd/served's -wire listener")
	flag.IntVar(&o.conns, "conns", 2, "wire connections shared round-robin by the workers")
	flag.IntVar(&o.batch, "batch", 1, "ops per wire batch frame; 1 = one op frame per op")
	flag.IntVar(&o.workers, "workers", 8, "concurrent client workers")
	flag.Int64Var(&o.ops, "ops", 50_000, "total ops to issue (0 = run for -duration)")
	flag.DurationVar(&o.dur, "duration", 5*time.Second, "run length when -ops is 0")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop aggregate ops/s target (0 = closed loop)")
	flag.IntVar(&o.keys, "keys", 256, "keyspace size")
	flag.Float64Var(&o.zipf, "zipf", 1.2, "Zipf skew s (>1); 0 for uniform keys")
	flag.IntVar(&o.readPct, "read-pct", 60, "percent of ops that are gets")
	flag.IntVar(&o.casPct, "cas-pct", 10, "percent of ops that are cas")
	flag.Int64Var(&o.seed, "seed", 1, "base RNG seed (worker i uses seed+i)")
	flag.IntVar(&o.retries, "retries", 3, "retries with the same op id on saturation or server deadline")
	flag.DurationVar(&o.maxP999, "max-p999", 0, "fail if overall p999 latency exceeds this (0 = off)")
	flag.StringVar(&o.summary, "summary", "", "write a JSON run summary to this path")
	flag.Parse()
	if o.conns < 1 || o.batch < 1 || o.batch > wire.MaxBatchOps {
		log.Fatalf("loadgen: -conns must be >= 1 and -batch in [1, %d]", wire.MaxBatchOps)
	}
	// Wait for the server to come up: scripts start it in the background.
	for i := 0; i < 50; i++ {
		if c, err := net.Dial("tcp", o.addr); err == nil {
			c.Close()
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err := run(o); err != nil {
		log.Fatalf("loadgen: %v", err)
	}
}

// worker issues ops until the shared budget runs out, collecting its own
// latency histogram (merged after the run; workers share nothing hot).
type worker struct {
	o         *options
	id        int
	conn      *wire.Conn // shared with workers/conns others
	rng       *rand.Rand
	zipf      *rand.Zipf
	issued    int64
	errors    int64
	retried   int64
	abandoned int64
	latency   [3]sim.Histogram
}

func (w *worker) key() string {
	if w.zipf != nil {
		return fmt.Sprintf("k%05d", w.zipf.Uint64())
	}
	return fmt.Sprintf("k%05d", w.rng.Intn(w.o.keys))
}

// op draws one operation from the configured mix. The ID is the
// client-assigned idempotency token that makes retries safe: the server
// dedups a resend of an op that did commit before its client gave up on it.
func (w *worker) op(i int64) service.Op {
	id := uint64(w.id+1)<<32 | uint64(i+1)
	key := w.key()
	p := w.rng.Intn(100)
	switch {
	case p < w.o.readPct:
		return service.Op{Kind: service.OpGet, Key: key, ID: id}
	case p < w.o.readPct+w.o.casPct:
		return service.Op{Kind: service.OpCAS, Key: key, Old: "",
			Val: fmt.Sprintf("cas-%d", i), ID: id}
	default:
		return service.Op{Kind: service.OpPut, Key: key,
			Val: fmt.Sprintf("put-%d", i), ID: id}
	}
}

// retriableWire marks the wire errors (saturation, server deadline) where
// resending the identical op — same client-assigned id — is the correct
// reaction; wire.Error.Unwrap maps the in-band error codes back onto the
// service's typed errors.
func retriableWire(err error) bool {
	return errors.Is(err, service.ErrSaturated) || errors.Is(err, service.ErrDeadline)
}

func (w *worker) issue(i int64) error {
	op := w.op(i)
	start := time.Now()
	var res service.Result
	var err error
	for try := 0; ; try++ {
		if res, err = w.conn.Do(op); err == nil {
			break
		}
		if !retriableWire(err) || try >= w.o.retries {
			if retriableWire(err) {
				// Out of retries on a retriable outcome: the op may or may
				// not have committed, exactly like a crashed client. The
				// server's audit decides if the history stayed consistent.
				w.abandoned++
				w.latency[op.Kind].Observe(time.Since(start).Nanoseconds())
				return nil
			}
			return err
		}
		w.retried++
	}
	if op.Kind == service.OpPut && !res.OK {
		return fmt.Errorf("put returned ok=false")
	}
	w.latency[op.Kind].Observe(time.Since(start).Nanoseconds())
	w.issued++
	return nil
}

// issueBatch sends ops as one wire batch frame, retrying the whole frame —
// same ids — on retriable errors (DoBatch is all-or-error, so the frame is
// the retry unit). results is the reused decode slice, returned for the
// next call. Latency is observed per op at frame granularity: every op in
// the frame shares the frame's round-trip time, which is what an end client
// batching its traffic actually experiences.
func (w *worker) issueBatch(ops []service.Op, results []service.Result) ([]service.Result, error) {
	start := time.Now()
	var err error
	for try := 0; ; try++ {
		results, err = w.conn.DoBatch(ops, results[:0])
		if err == nil {
			break
		}
		if !retriableWire(err) || try >= w.o.retries {
			if retriableWire(err) {
				w.abandoned += int64(len(ops))
				el := time.Since(start).Nanoseconds()
				for _, op := range ops {
					w.latency[op.Kind].Observe(el)
				}
				return results, nil
			}
			return results, err
		}
		w.retried++
	}
	el := time.Since(start).Nanoseconds()
	for i, op := range ops {
		if op.Kind == service.OpPut && !results[i].OK {
			return results, fmt.Errorf("put returned ok=false")
		}
		w.latency[op.Kind].Observe(el)
	}
	w.issued += int64(len(ops))
	return results, nil
}

// pingTimeout bounds the reachability probe: a listener that accepts the
// connection but never answers an RPW1 ping is not a wire server.
const pingTimeout = 5 * time.Second

func run(o options) error {
	// Probe that the server speaks RPW1, then open the rest of the shared
	// connection pool.
	first, err := wire.Dial(o.addr)
	if err != nil {
		return fmt.Errorf("wire server at %s not reachable: %w", o.addr, err)
	}
	conns := []*wire.Conn{first}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	ping := make(chan error, 1)
	go func() { ping <- first.Ping() }()
	select {
	case err = <-ping:
	case <-time.After(pingTimeout):
		err = fmt.Errorf("no answer to a ping within %v", pingTimeout)
	}
	if err != nil {
		return fmt.Errorf("%s does not speak RPW1: %w", o.addr, err)
	}
	for len(conns) < o.conns {
		c, err := wire.Dial(o.addr)
		if err != nil {
			return fmt.Errorf("wire dial: %w", err)
		}
		conns = append(conns, c)
	}

	var budget atomic.Int64
	budget.Store(o.ops)
	deadline := time.Now().Add(o.dur)
	useDeadline := o.ops == 0
	// take claims up to n ops from the shared budget (the batch path claims
	// a whole frame at once, so the last frame of a run may be short).
	take := func(n int64) int64 {
		rem := budget.Add(-n)
		switch {
		case rem >= 0:
			return n
		case rem > -n:
			return n + rem
		default:
			return 0
		}
	}

	// Open-loop pacing: each worker offers rate/workers ops/s, batch frames
	// counting for their op count.
	var interval time.Duration
	if o.rate > 0 {
		interval = time.Duration(float64(o.workers) * float64(o.batch) / o.rate * float64(time.Second))
	}

	workers := make([]*worker, o.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for wi := 0; wi < o.workers; wi++ {
		rng := rand.New(rand.NewSource(o.seed + int64(wi)))
		w := &worker{o: &o, id: wi, conn: conns[wi%len(conns)], rng: rng}
		if o.zipf > 1 && o.keys > 1 {
			w.zipf = rand.NewZipf(rng, o.zipf, 1, uint64(o.keys-1))
		}
		workers[wi] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := time.Now()
			pace := func() {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
			}
			fail := func(err error) bool {
				w.errors++
				log.Printf("loadgen: worker error: %v", err)
				return w.errors > 10
			}
			if o.batch > 1 {
				ops := make([]service.Op, 0, o.batch)
				results := make([]service.Result, 0, o.batch)
				for i := int64(0); ; {
					n := int64(o.batch)
					if useDeadline {
						if time.Now().After(deadline) {
							return
						}
					} else if n = take(n); n == 0 {
						return
					}
					pace()
					ops = ops[:0]
					for j := int64(0); j < n; j++ {
						ops = append(ops, w.op(i))
						i++
					}
					var err error
					if results, err = w.issueBatch(ops, results); err != nil && fail(err) {
						return
					}
				}
			}
			for i := int64(0); ; i++ {
				if useDeadline {
					if time.Now().After(deadline) {
						return
					}
				} else if take(1) == 0 {
					return
				}
				pace()
				if err := w.issue(i); err != nil && fail(err) {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var issued, errs, retried, abandoned int64
	var lat [3]sim.Histogram
	for _, w := range workers {
		issued += w.issued
		errs += w.errors
		retried += w.retried
		abandoned += w.abandoned
		for k := range lat {
			lat[k].Merge(w.latency[k])
		}
	}
	var all sim.Histogram
	for k := range lat {
		all.Merge(lat[k])
	}
	fmt.Printf("loadgen: %d ops in %v = %.0f ops/s (%d workers, %d errors, %d retries, %d abandoned)\n",
		issued, elapsed.Round(time.Millisecond), float64(issued)/elapsed.Seconds(), o.workers, errs, retried, abandoned)
	for k, name := range []string{"get", "put", "cas"} {
		if lat[k].Count == 0 {
			continue
		}
		fmt.Printf("loadgen:   %-3s n=%-8d mean=%s p50=%s p99=%s p999=%s\n", name, lat[k].Count,
			time.Duration(int64(lat[k].Mean())), time.Duration(lat[k].Quantile(0.5)),
			time.Duration(lat[k].Quantile(0.99)), time.Duration(lat[k].Quantile(0.999)))
	}
	p999 := time.Duration(all.Quantile(0.999))
	fmt.Printf("loadgen: all p50=%s p99=%s p999=%s max=%s\n",
		time.Duration(all.Quantile(0.5)), time.Duration(all.Quantile(0.99)), p999, time.Duration(all.Max))

	if o.summary != "" {
		buf, err := json.MarshalIndent(runSummary{
			Issued: issued, Errors: errs, Retried: retried,
			Abandoned: abandoned, P999Ns: int64(p999),
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(o.summary, append(buf, '\n'), 0o644)
		}
		if err != nil {
			return fmt.Errorf("summary: %w", err)
		}
	}

	// Pull the server's audit verdict: the run only passes if every audited
	// window of the traffic we just generated linearized. Drain every
	// connection first (the pipeline fence of PROTOCOL.md §3.5) so the stats
	// snapshot is taken after our last op was answered.
	for _, c := range conns {
		if err := c.Drain(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	var stats service.Stats
	if err := conns[0].Stats(&stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	a := stats.Audit
	fmt.Printf("loadgen: server: %d ops, %d batches (mean %.1f cmds/batch)\n",
		stats.TotalOps, stats.Batches, stats.BatchSize.Mean())
	fmt.Printf("loadgen: audit: %d sampled, %d windows checked, %d violations, %d gaps, %d dropped, %d truncated\n",
		a.SampledOps, a.WindowsChecked, a.Violations, a.Gaps, a.DroppedOps, a.Truncated)
	if errs > 0 {
		return fmt.Errorf("%d request errors", errs)
	}
	if a.Violations > 0 {
		for _, s := range a.ViolationSamples {
			fmt.Printf("loadgen: VIOLATION: %s\n", s)
		}
		return fmt.Errorf("%d linearizability violations", a.Violations)
	}
	if issued == 0 {
		return fmt.Errorf("no ops issued")
	}
	if o.maxP999 > 0 && p999 > o.maxP999 {
		return fmt.Errorf("p999 latency %s exceeds -max-p999 %s", p999, o.maxP999)
	}
	fmt.Println("loadgen: OK — zero linearizability violations across all audited windows")
	return nil
}
