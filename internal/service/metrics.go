package service

import (
	"strconv"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// storeMetrics is the store's always-on observability surface and its only
// per-op ledger (Stats is a view over it, see MergedStats): the recorded
// instruments (striped by worker gid / shard id so single-writer stripes
// never contend) plus scrape-time views over state the store already
// maintains (queue depths, log positions, audit progress, fault points).
//
// Recording costs a handful of atomic adds and 0 allocs — cheap enough to
// leave on unconditionally; there is no "metrics disabled" mode. Under the
// virtual runtime every record happens inside the controlled run, so
// post-run values are deterministic in (scenario, seed) and sim oracles
// assert on them exactly.
type storeMetrics struct {
	reg *metrics.Registry

	// Hot-path instruments, striped by worker gid (finish runs on the
	// owning slot's proc, a single writer per stripe).
	ops       [NumOpKinds]*metrics.Counter
	latency   [NumOpKinds]*metrics.Histogram
	batches   *metrics.Counter
	batchOcc  *metrics.Histogram
	dedupHits *metrics.Counter

	// Supervision, striped by worker gid like the above: recovery is a
	// crashed slot's crash-to-first-commit time, observed by its successor
	// incarnation; restarts is bumped by the shard supervisor per respawn.
	// The breaker outcomes are rare and unstriped.
	recovery        *metrics.Histogram
	restarts        *metrics.Counter
	condemned       *metrics.Counter
	sparesExhausted *metrics.Counter

	// inflight is striped by shard id: +1 at enqueue (client side), -1 per
	// request when its batch's side effects publish.
	inflight *metrics.Gauge
}

// newStoreMetrics builds the registry after the shards exist and before any
// worker spawns. Latency buckets are in runtime clock units: power-of-two
// nanoseconds on the free runtime (1µs .. ~64s), power-of-two scheduler
// steps on the virtual one.
func newStoreMetrics(s *Store, virtual bool) *storeMetrics {
	workers := s.cfg.Shards * s.cfg.WorkersPerShard
	latBounds := metrics.Pow2Bounds(10, 36)
	if virtual {
		latBounds = metrics.Pow2Bounds(0, 24)
	}
	m := &storeMetrics{reg: metrics.NewRegistry()}
	for k := 0; k < NumOpKinds; k++ {
		kind := metrics.Labels{{Name: "kind", Value: OpKind(k).String()}}
		m.ops[k] = m.reg.CounterStriped("service_ops_total",
			"Committed commands by kind.", kind, workers)
		m.latency[k] = m.reg.HistogramStriped("service_op_latency_ns",
			"Submit-to-commit latency in runtime clock units (ns free / steps virtual).",
			kind, latBounds, workers)
	}
	m.batches = m.reg.CounterStriped("service_batches_total",
		"Committed log commands (batches).", nil, workers)
	m.batchOcc = m.reg.HistogramStriped("service_batch_occupancy",
		"Client commands per committed log command.", nil,
		metrics.Pow2Bounds(0, 10), workers)
	m.dedupHits = m.reg.CounterStriped("service_dedup_hits_total",
		"Retries answered from the replicated dedup table.", nil, workers)
	m.inflight = m.reg.GaugeStriped("service_inflight",
		"Commands enqueued but not yet committed and answered.", nil, s.cfg.Shards)

	m.recovery = m.reg.HistogramStriped("service_supervision_recovery_ns",
		"Crash-to-first-commit latency of restarted workers in runtime clock units.",
		nil, latBounds, workers)
	m.restarts = m.reg.CounterStriped("service_supervision_restarts_total",
		"Worker incarnations respawned after a crash.", nil, workers)
	m.condemned = m.reg.Counter("service_supervision_condemned_total",
		"Slots permanently condemned by the crash-loop breaker.", nil)
	m.sparesExhausted = m.reg.Counter("service_supervision_spares_exhausted_total",
		"Respawns refused because the virtual seat pool ran dry.", nil)

	for _, sh := range s.shards {
		sh := sh
		shardLabel := metrics.Labels{{Name: "shard", Value: strconv.Itoa(sh.id)}}
		m.reg.GaugeFunc("service_queue_depth",
			"Currently queued commands per shard.", shardLabel,
			func() float64 { return float64(sh.q.len()) })
		m.reg.GaugeFunc("service_committed",
			"Shard log length (max over its workers' replica positions).", shardLabel,
			func() float64 { return float64(sh.frontier(statsProc)) })
	}

	if a := s.audit; a != nil {
		m.reg.CounterFunc("service_audit_sampled_total",
			"Committed ops accepted onto the audit queue.", nil,
			func() float64 { return float64(a.sampled.Load()) })
		m.reg.CounterFunc("service_audit_dropped_total",
			"Audit records lost to queue or table bounds.", nil,
			func() float64 { return float64(a.dropped.Load()) })
		auditCounter := func(name, help string, field *int64) {
			m.reg.CounterFunc(name, help, nil, func() float64 {
				a.mu.Lock()
				defer a.mu.Unlock()
				return float64(*field)
			})
		}
		auditCounter("service_audit_windows_total",
			"Completed linearizability window checks.", &a.windowsChecked)
		auditCounter("service_audit_violations_total",
			"Windows with no valid linearization.", &a.violations)
		auditCounter("service_audit_truncated_total",
			"Windows skipped by the checker's size bound.", &a.truncated)
		auditCounter("service_audit_gaps_total",
			"Windows discarded because sampling broke version contiguity.", &a.gaps)
	}

	if f := s.faults; f != nil {
		m.reg.ExpandFunc("fault_point_fires_total", "counter",
			"Armed fault-point evaluations by point.", expandFaults(f, false))
		m.reg.ExpandFunc("fault_point_acted_total", "counter",
			"Fault-point firings whose rule acted (crash/delay/drop).", expandFaults(f, true))
	}
	return m
}

// expandFaults adapts fault.Set.Stats to a dynamic metric family, one series
// per armed point. The set's rule table can be swapped at runtime (config
// reload), so the label space is only known at scrape time.
func expandFaults(f *fault.Set, acted bool) func(emit func(metrics.Labels, float64)) {
	return func(emit func(metrics.Labels, float64)) {
		for point, st := range f.Stats() {
			v := st.Fires
			if acted {
				v = st.Acted
			}
			emit(metrics.Labels{{Name: "point", Value: point}}, float64(v))
		}
	}
}
