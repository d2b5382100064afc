package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

const (
	coldSetUps    = 3 // setup_s is their median: the first set-up in a process is 15–100 % slower than the next
	warmUp        = 2 * time.Second
	calibrateFor  = 250 * time.Millisecond
	sliceLength   = time.Second       // ops_per_s is the median over slices of this length
	runLimit      = 150 * time.Second // beyond the window; a run that takes longer is hung
	preloadLimit  = 60 * time.Second
	quiesceLimit  = 5 * time.Second
	phaseHeadroom = 30 * time.Second // how long past its window a call may take before it is failed
)

// metricDef names one metric of the run's last output line. The names and
// units are repeated in BENCHMARK.json; TestSpecMatchesTables compares them.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"cpu_s_per_mop", "s"},
	{"allocs_per_op", "count"},
}

var perLayer = []metricDef{
	{"memory.fetchadd_ns", "ns"},
	{"universal.exec_ns", "ns"},
	{"service.call_us_p50", "us"},
	{"service.call_us_p99", "us"},
	{"service.commit_us_mean", "us"},
	{"service.ops_per_batch", "count"},
	{"spec.sampled_per_op", "count"},
	{"spec.dropped_per_op", "count"},
	{"spec.windows_per_kop", "count"},
	{"spec.gaps", "count"},
	{"spec.violations", "count"},
	{"wire.call_us_p50", "us"},
	{"wire.call_us_p99", "us"},
	{"wire.self_us_p50", "us"},
	{"wire.codec_ns_per_op", "ns"},
	{"wire.bytes_per_op", "count"},
	{"cluster.call_us_p50", "us"},
	{"cluster.call_us_p99", "us"},
	{"cluster.apply_us_mean", "us"},
	{"cluster.self_us_mean", "us"},
	{"cluster.ops_per_entry", "count"},
	{"cluster.msgs_per_op", "count"},
	{"cluster.route_retries", "count"},
	{"cluster.redirects", "count"},
	{"cluster.frames_dropped", "count"},
	{"cluster.elections", "count"},
	{"cluster.follower_lag_entries", "count"},
	{"cluster.failover_unavail_ms", "ms"},
	{"proc.cpu_util", "count"},
	{"proc.heap_live_mb", "count"},
	{"proc.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// result is one run of one workload.
type result struct {
	attempted, failed int64
	values            map[string]float64 // by metric name
	notes             []string           // sample counts and gate failures, for the reader
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed check that is not a single op's.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.notef("FAILED: "+format, args...)
}

// eachClient runs f once per client index, concurrently, and joins the errors.
func eachClient(f func(c int) error) error {
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = f(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setUp is the timed set-up: construct the stack, wait until it answers,
// have each client put its half of the keyspace in preloadBatch-op batches,
// then read every key back and compare.
func setUp(w workload, t *tables, rec *recorder) (*sut, time.Duration, error) {
	start := time.Now()
	s, err := construct(w, rec)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := preload(s, t); err != nil {
		return nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), s.close())
	}
	return s, time.Since(start), nil
}

func preload(s *sut, t *tables) error {
	ctx, cancel := context.WithTimeout(context.Background(), preloadLimit)
	defer cancel()
	return eachClient(func(c int) error {
		ops := make([]service.Op, 0, preloadBatch)
		id := uint64(0x80|c) << 56 // apart from every generated and probe ID
		lo, hi := c*numKeys/numClients, (c+1)*numKeys/numClients
		for _, kind := range []service.OpKind{service.OpPut, service.OpGet} {
			for base := lo; base < hi; base += preloadBatch {
				ops = ops[:0]
				for k := base; k < min(base+preloadBatch, hi); k++ {
					id++
					op := service.Op{Kind: kind, Key: t.key(k), ID: id}
					if kind == service.OpPut {
						op.Val = t.val(k, 0)
					}
					ops = append(ops, op)
				}
				res, err := s.clients[c].DoBatch(ctx, ops)
				if err != nil {
					return fmt.Errorf("preload %v: %w", kind, err)
				}
				for j, r := range res {
					if !r.OK || (kind == service.OpGet && r.Val != t.val(base+j, 0)) {
						return fmt.Errorf("preload: %v %s answered %+v", kind, ops[j].Key, r)
					}
				}
			}
		}
		return nil
	})
}

// tally is what one client saw in one window.
type tally struct {
	lat               []int64 // ns per call, in call order
	attempted, failed int64
	verified          int64
	err               error // the call error that stopped this client early
}

// drive is one closed-loop client: draw the next call's ops, issue the call,
// wait for the reply, check it, repeat until the window ends. Generator and
// checking time are between calls, so they lower throughput but are not in
// the latencies.
func drive(c client, g *gen, w workload, rec *recorder, window time.Duration) *tally {
	ctx, cancel := context.WithTimeout(context.Background(), window+phaseHeadroom)
	defer cancel()
	const callsPerSecond = 60_000 // above what one client of the fastest workload makes
	t := &tally{lat: make([]int64, 0, int(window.Seconds()*callsPerSecond))}
	ops := make([]service.Op, w.batch)
	single := make([]service.Result, 1)
	begin := time.Now()
	for {
		g.fill(ops)
		start := time.Now()
		if start.Sub(begin) >= window {
			return t
		}
		var res []service.Result
		var err error
		if w.batch == 1 {
			single[0], err = c.Do(ctx, ops[0])
			res = single
		} else {
			res, err = c.DoBatch(ctx, ops)
		}
		end := time.Now()
		if rec.on() {
			rec.add(w.root, ops[0].ID, start, end)
		}
		t.attempted += int64(len(ops))
		if err != nil || len(res) != len(ops) {
			t.failed += int64(len(ops))
			t.err = fmt.Errorf("call answered %d of %d ops, error %v", len(res), len(ops), err)
			return t
		}
		t.lat = append(t.lat, int64(end.Sub(start)))
		ok := int64(0)
		for i, op := range ops {
			if verified(op, res[i]) {
				ok++
			}
		}
		t.failed += int64(len(ops)) - ok
		t.verified += ok
	}
}

// window is one measured stretch of load from every client.
type window struct {
	tallies  []*tally
	wall     time.Duration
	cpu      float64 // process user+sys seconds
	mallocs  uint64
	gcCycles uint32
}

// measure drives every client for length, each from its own generator, and
// reads the process's clocks and allocation counts around them.
func measure(s *sut, gens []*gen, w workload, rec *recorder, length time.Duration) window {
	win := window{tallies: make([]*tally, numClients)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuSeconds()
	start := time.Now()
	eachClient(func(c int) error { //nolint:errcheck // a stopped client is reported from its tally
		win.tallies[c] = drive(s.clients[c], gens[c], w, rec, length)
		return nil
	})
	win.wall = time.Since(start)
	win.cpu = cpuSeconds() - cpu
	runtime.ReadMemStats(&after)
	win.mallocs = after.Mallocs - before.Mallocs
	win.gcCycles = after.NumGC - before.NumGC
	return win
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

func (win window) verified() (n int64) {
	for _, t := range win.tallies {
		n += t.verified
	}
	return n
}

// latencies merges and sorts the clients' call latencies.
func (win window) latencies() []int64 {
	var all []int64
	for _, t := range win.tallies {
		all = append(all, t.lat...)
	}
	slices.Sort(all)
	return all
}

// account adds the window's op counts and client errors to the result.
func (win window) account(r *result) {
	for c, t := range win.tallies {
		r.attempted += t.attempted
		r.failed += t.failed
		if t.err != nil {
			r.notef("FAILED: client %d stopped: %v", c, t.err)
		}
	}
}

// checkQuiesced is the first check after the last window: on a cluster,
// every shard's committed frontier agrees on all nodes once the clients have
// stopped.
func checkQuiesced(s *sut, r *result) {
	if s.nodes == nil {
		return
	}
	if err := s.quiesce(quiesceLimit); err != nil {
		r.fail("%v", err)
	}
}

// closeAndAudit tears the system down and then reads the auditors, which
// check every window still open when their store closes: the shutdown must
// complete and no store may have seen a linearizability violation. It
// returns the violations counted.
func closeAndAudit(s *sut, r *result) (violations int64) {
	if err := s.close(); err != nil {
		r.fail("%v", err)
	}
	for i, st := range s.stores() {
		if a := st.Stats().Audit; a.Violations != 0 {
			violations += a.Violations
			r.fail("store %d: %d linearizability violations: %v", i, a.Violations, a.ViolationSamples)
		}
	}
	return violations
}

const us = 1e3 // ns per µs

// runUntraced measures the end-to-end metrics of one workload with tracing off.
func runUntraced(widx int, t *tables, seed int64, length time.Duration) (*result, error) {
	w := workloads[widx]
	r := &result{values: map[string]float64{}}
	var s *sut
	setUps := make([]float64, coldSetUps)
	for i := range setUps {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if s, took, err = setUp(w, t, nil); err != nil {
			return nil, err
		}
		setUps[i] = took.Seconds()
	}
	r.notef("set-ups %.3f s", setUps)
	slices.Sort(setUps)
	r.values["setup_s"] = setUps[len(setUps)/2]

	gens := newGens(t, seed, widx)
	measure(s, gens, w, nil, warmUp).account(r)
	runtime.GC()
	r.attempted = 0 // report the measured window's ops; a failure in the warm-up still fails the run
	win := measure(s, gens, w, nil, length)
	win.account(r)
	checkQuiesced(s, r)
	closeAndAudit(s, r)

	ops := float64(max(win.verified(), 1))
	lat := win.latencies()
	if len(lat) == 0 {
		return nil, errors.New("no call completed in the measured window")
	}
	pct, tailNs, beyond := tail(lat)
	r.values["ops_per_s"] = ops / win.wall.Seconds()
	r.values["lat_p50_us"] = float64(median(lat)) / us
	r.values["lat_p99_us"] = float64(tailNs) / us
	r.values["cpu_s_per_mop"] = win.cpu / (ops / 1e6)
	r.values["allocs_per_op"] = float64(win.mallocs) / ops
	r.notef("%d calls of %d ops in %.2f s; lat_p99_us is p%d with %d samples beyond it",
		len(lat), w.batch, win.wall.Seconds(), pct, beyond)
	return r, nil
}

// runTraced measures the per-layer metrics of one workload: one set-up, half
// the window with the recorder off, half with it on. The layers' own
// counters are read at the edges of the traced half. A metric it does not
// set reads 0: a layer the workload does not cross did no work.
func runTraced(widx int, t *tables, seed int64, length time.Duration, spanFile string) (*result, error) {
	w := workloads[widx]
	r := &result{values: map[string]float64{}}
	r.values["memory.fetchadd_ns"] = calibrate(calibrateFor)
	r.values["universal.exec_ns"] = universalExecNs()
	codecNs, codecBytes, err := codecProbe(w, newGen(t, seed, widx, numClients))
	if err != nil {
		return nil, err
	}
	r.values["wire.codec_ns_per_op"] = codecNs
	r.values["wire.bytes_per_op"] = codecBytes

	half := length / 2
	rec := newRecorder(int(half.Seconds()+1) * spansPerSecond)
	s, took, err := setUp(w, t, rec)
	if err != nil {
		return nil, err
	}
	r.notef("set-up %.3f s", took.Seconds())
	gens := newGens(t, seed, widx)
	measure(s, gens, w, rec, warmUp).account(r)
	runtime.GC()
	untraced := measure(s, gens, w, rec, half)
	untraced.account(r)
	r.attempted = 0 // report the traced half's ops
	before, err := s.counters()
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	rec.enabled.Store(true)
	win := measure(s, gens, w, rec, half)
	rec.enabled.Store(false)
	win.account(r)
	after, err := s.counters()
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	checkQuiesced(s, r)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if w.name == "cluster-single" {
		ms, unanswered := failoverProbe(s)
		r.values["cluster.failover_unavail_ms"] = ms
		r.notef("failover: %d of the closed owner's shards unanswered within the cap", unanswered)
	}
	r.values["spec.violations"] = float64(closeAndAudit(s, r))

	spans, dropped := rec.recorded()
	link(spans, w.root)
	r.notef("%d spans kept, %d dropped at capacity", len(spans), dropped)
	if spanFile != "" {
		f, err := os.Create(spanFile)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(dumpSpans(f, spans), f.Close()); err != nil {
			return nil, err
		}
	}

	ops := float64(max(win.verified(), 1))
	for _, l := range []layer{layerService, layerWire, layerCluster} {
		d := durations(spans, l)
		if len(d) == 0 {
			continue
		}
		pct, tailNs, beyond := tail(d)
		r.values[l.String()+".call_us_p50"] = float64(median(d)) / us
		r.values[l.String()+".call_us_p99"] = float64(tailNs) / us
		r.notef("%s: %d spans; call_us_p99 is p%d with %d samples beyond it", l, len(d), pct, beyond)
	}
	if self := selfTimes(spans, layerWire); len(self) > 0 {
		r.values["wire.self_us_p50"] = float64(median(self)) / us
	}
	if n := after.commitN - before.commitN; n > 0 {
		r.values["service.commit_us_mean"] = (after.commitNs - before.commitNs) / float64(n) / us
	}
	if b := after.batches - before.batches; b > 0 {
		r.values["service.ops_per_batch"] = float64(after.ops-before.ops) / float64(b)
	}
	r.values["spec.sampled_per_op"] = float64(after.audit.SampledOps-before.audit.SampledOps) / ops
	r.values["spec.dropped_per_op"] = float64(after.audit.DroppedOps-before.audit.DroppedOps) / ops
	r.values["spec.windows_per_kop"] = float64(after.audit.WindowsChecked-before.audit.WindowsChecked) / (ops / 1e3)
	r.values["spec.gaps"] = float64(after.audit.Gaps - before.audit.Gaps)
	if s.nodes != nil {
		if n := after.applyN - before.applyN; n > 0 {
			r.values["cluster.apply_us_mean"] = (after.applyNs - before.applyNs) / float64(n) / us
		}
		var callNs int64
		calls := durations(spans, layerCluster)
		for _, ns := range calls {
			callNs += ns
		}
		r.values["cluster.self_us_mean"] = float64(callNs)/float64(max(len(calls), 1))/us - r.values["cluster.apply_us_mean"]
		if e := after.entries - before.entries; e > 0 {
			r.values["cluster.ops_per_entry"] = ops / float64(e)
		}
		r.values["cluster.msgs_per_op"] = (after.msgs - before.msgs) / ops
		r.values["cluster.route_retries"] = float64(after.retries - before.retries)
		r.values["cluster.redirects"] = float64(after.redirects - before.redirects)
		r.values["cluster.frames_dropped"] = after.dropped - before.dropped
		r.values["cluster.elections"] = float64(after.elects - before.elects)
		r.values["cluster.follower_lag_entries"] = float64(after.followerLagMax)
	}
	r.values["proc.cpu_util"] = win.cpu / win.wall.Seconds()
	r.values["proc.heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	r.values["proc.gc_cycles"] = float64(win.gcCycles)
	tracedRate := ops / win.wall.Seconds()
	untracedRate := float64(untraced.verified()) / untraced.wall.Seconds()
	r.values["trace.overhead_pct"] = (1 - tracedRate/untracedRate) * 100
	r.notef("untraced %.0f ops/s, traced %.0f ops/s", untracedRate, tracedRate)
	return r, nil
}
