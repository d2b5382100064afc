// Package metrics is the serving tier's always-on observability core: a
// zero-allocation, shard-striped metrics registry (counters, gauges,
// fixed-bucket histograms) cheap enough to leave recording on the Do/DoBatch
// hot path at millions of ops/s, exposed in Prometheus text exposition
// format (see expose.go).
//
// Design:
//
//   - Recording never allocates and never locks. Every instrument is a set
//     of cache-line-padded atomic cells; hot-path callers that own a natural
//     stripe (a shard worker, a per-core loop) record through AddAt/ObserveAt
//     with their stripe index, so single-writer stripes never contend.
//     Stripes are merged only at scrape time, which is the cold path.
//   - Registration happens at construction time and may allocate freely;
//     invalid registrations (bad names, duplicate series) panic, exactly
//     like a malformed struct tag — they are programmer errors, not runtime
//     conditions.
//   - Scrapes are consistent per cell but not across cells (a scrape
//     concurrent with recording may see counter A's increment and not B's).
//     Under the virtual runtime (internal/sched) every record happens under
//     the run's step token, so post-run values are exact and deterministic
//     in (scenario, seed) — sim oracles can assert on them with ==.
//
// The package is hand-rolled rather than a client_golang dependency: the
// repo's regression discipline needs an auditable record path (a handful of
// atomic adds) that a test can hold at 0 allocs/op, and the exposition
// writer doubles as a reference for the binary-transport refactor's framing
// discipline.
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair of a metric series.
type Label struct {
	Name  string
	Value string
}

// Labels is an ordered label set. Registration sorts a copy by name, so
// callers may list labels in any order.
type Labels []Label

// cell is one padded counter stripe. The padding keeps two stripes out of
// one cache line, so single-writer stripes never false-share.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing value, striped across cells.
// The zero-stripe methods (Inc/Add) serve callers without a natural stripe;
// hot paths with per-worker identity use AddAt.
type Counter struct {
	cells []cell
}

// Inc adds 1 on stripe 0.
func (c *Counter) Inc() { c.cells[0].n.Add(1) }

// Add adds d on stripe 0. d must be >= 0 (counters are monotone); negative
// deltas are a programmer error and are ignored.
func (c *Counter) Add(d int64) {
	if d < 0 {
		return
	}
	c.cells[0].n.Add(d)
}

// AddAt adds d on the caller's stripe. Stripe indices wrap, so any
// non-negative worker id is a valid stripe.
func (c *Counter) AddAt(stripe int, d int64) {
	if d < 0 {
		return
	}
	c.cells[uint(stripe)%uint(len(c.cells))].n.Add(d)
}

// IncAt adds 1 on the caller's stripe.
func (c *Counter) IncAt(stripe int) {
	c.cells[uint(stripe)%uint(len(c.cells))].n.Add(1)
}

// Value merges the stripes.
func (c *Counter) Value() int64 {
	var v int64
	for i := range c.cells {
		v += c.cells[i].n.Load()
	}
	return v
}

// Gauge is a value that can go up and down, striped like a Counter (a
// striped gauge is a distributed sum: Value is the merged total, which is
// exactly right for "in-flight ops" style gauges maintained as +1/-1 deltas
// from many workers).
type Gauge struct {
	cells []cell
}

// Set stores v on stripe 0 (only meaningful for unstriped gauges).
func (g *Gauge) Set(v int64) { g.cells[0].n.Store(v) }

// Add adds d on stripe 0.
func (g *Gauge) Add(d int64) { g.cells[0].n.Add(d) }

// AddAt adds d on the caller's stripe.
func (g *Gauge) AddAt(stripe int, d int64) {
	g.cells[uint(stripe)%uint(len(g.cells))].n.Add(d)
}

// Value merges the stripes.
func (g *Gauge) Value() int64 {
	var v int64
	for i := range g.cells {
		v += g.cells[i].n.Load()
	}
	return v
}

// Histogram is a fixed-bucket distribution: bounds[i] is the inclusive
// upper bound of bucket i, with an implicit +Inf bucket at the end. Each
// stripe holds its own bucket counts and sum, merged at scrape time.
// Observe is a linear scan over the bounds plus two atomic adds — no
// allocation, no lock, and for single-writer stripes no contention.
type Histogram struct {
	bounds  []int64
	stripes []histStripe
}

// histStripe is one stripe's bucket counts plus its observation sum. The
// trailing pad keeps the next stripe's first bucket off this cache line.
type histStripe struct {
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	_      [48]byte
}

// Observe records v on stripe 0.
func (h *Histogram) Observe(v int64) { h.ObserveAt(0, v) }

// ObserveAt records v on the caller's stripe. Negative observations clamp
// to 0 (latencies measured across a clock rewind).
func (h *Histogram) ObserveAt(stripe int, v int64) {
	if v < 0 {
		v = 0
	}
	s := &h.stripes[uint(stripe)%uint(len(h.stripes))]
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	s.counts[i].Add(1)
	s.sum.Add(v)
}

// HistogramSnapshot is a merged point-in-time view of a Histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts has one extra entry for
	// the +Inf bucket.
	Bounds []int64
	Counts []int64
	Count  int64
	Sum    int64
}

// Snapshot merges the stripes.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.bounds)+1),
	}
	for si := range h.stripes {
		s := &h.stripes[si]
		for i := range s.counts {
			snap.Counts[i] += s.counts[i].Load()
		}
		snap.Sum += s.sum.Load()
	}
	for _, c := range snap.Counts {
		snap.Count += c
	}
	return snap
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Merge folds o into s, so one summary can span the same instrument in
// several registries. The zero snapshot adopts o's bounds; after that the
// bounds must match (merging different bucket families is a programmer
// error and panics).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if s.Counts == nil {
		s.Bounds = o.Bounds
		s.Counts = make([]int64, len(o.Counts))
	}
	if len(s.Counts) != len(o.Counts) {
		panic(fmt.Sprintf("metrics: merging histograms with %d and %d buckets", len(s.Counts), len(o.Counts)))
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile returns a conservative estimate of the q-quantile (0 < q <= 1):
// the upper bound of the bucket where the cumulative count crosses q, i.e.
// an over-estimate by at most one bucket's width. The +Inf bucket reports
// the largest finite bound (there is no better information). Returns 0 on
// an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum > rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			break
		}
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Pow2Bounds returns histogram bounds 2^lo, 2^(lo+1), ..., 2^hi — the
// bucket family used for latency in runtime clock units (nanoseconds on
// the free runtime, scheduler steps on the virtual one).
func Pow2Bounds(lo, hi uint) []int64 {
	if hi > 62 || lo > hi {
		panic(fmt.Sprintf("metrics: invalid Pow2Bounds(%d, %d)", lo, hi))
	}
	bounds := make([]int64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		bounds = append(bounds, int64(1)<<e)
	}
	return bounds
}

// metricKind is the exposition TYPE of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// String returns the Prometheus exposition TYPE keyword for the kind.
func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one registered label combination of a family, bound to its
// instrument (exactly one of counter/gauge/hist/fn is set).
type series struct {
	labels  Labels // sorted by name
	sig     string // canonical label signature, for dup detection and ordering
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family is one metric name: HELP, TYPE, and its series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	// expand, when set, is a dynamic family: at scrape time it is called to
	// emit the current series (used for runtime-shaped sets like armed fault
	// points, where the label space is not known at registration).
	expand func(emit func(Labels, float64))
}

// Registry holds a process's metric families. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or extends) the named counter family with one series
// carrying the given constant labels, and returns its unstriped instrument.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.CounterStriped(name, help, labels, 1)
}

// CounterStriped is Counter with the given stripe count (use the number of
// natural single-writer recorders, e.g. shard workers).
func (r *Registry) CounterStriped(name, help string, labels Labels, stripes int) *Counter {
	c := &Counter{cells: make([]cell, stripeCount(stripes))}
	r.add(name, help, kindCounter, &series{labels: canonical(labels), counter: c})
	return c
}

// Gauge registers one gauge series and returns its instrument.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.GaugeStriped(name, help, labels, 1)
}

// GaugeStriped is Gauge with the given stripe count.
func (r *Registry) GaugeStriped(name, help string, labels Labels, stripes int) *Gauge {
	g := &Gauge{cells: make([]cell, stripeCount(stripes))}
	r.add(name, help, kindGauge, &series{labels: canonical(labels), gauge: g})
	return g
}

// GaugeFunc registers a gauge series whose value is read by calling fn at
// scrape time (queue depths, log positions — state that already exists and
// needs no second copy maintained on the hot path).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.add(name, help, kindGauge, &series{labels: canonical(labels), fn: fn})
}

// CounterFunc registers a counter series read by calling fn at scrape time.
// fn must be monotone (it exposes an existing counter, e.g. an auditor
// statistic, without maintaining a duplicate).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.add(name, help, kindCounter, &series{labels: canonical(labels), fn: fn})
}

// Histogram registers one histogram series with the given inclusive upper
// bounds (strictly increasing, at least one) and returns its instrument.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []int64) *Histogram {
	return r.HistogramStriped(name, help, labels, bounds, 1)
}

// HistogramStriped is Histogram with the given stripe count.
func (r *Registry) HistogramStriped(name, help string, labels Labels, bounds []int64, stripes int) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not strictly increasing at %d", name, i))
		}
	}
	n := stripeCount(stripes)
	h := &Histogram{bounds: append([]int64(nil), bounds...), stripes: make([]histStripe, n)}
	for i := range h.stripes {
		h.stripes[i].counts = make([]atomic.Int64, len(bounds)+1)
	}
	r.add(name, help, kindHistogram, &series{labels: canonical(labels), hist: h})
	return h
}

// ExpandFunc registers a dynamic family of the given exposition type
// ("counter" or "gauge"): at scrape time fn is called to emit the family's
// current series. Used when the label space is only known at runtime (e.g.
// armed fault points).
func (r *Registry) ExpandFunc(name, typ, help string, fn func(emit func(Labels, float64))) {
	var kind metricKind
	switch typ {
	case "counter":
		kind = kindCounter
	case "gauge":
		kind = kindGauge
	default:
		panic(fmt.Sprintf("metrics: ExpandFunc %q: unsupported type %q", name, typ))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("metrics: family %q already registered", name))
	}
	checkName(name)
	r.families[name] = &family{name: name, help: help, kind: kind, expand: fn}
}

// add registers one series under the named family, creating the family on
// first use and enforcing HELP/TYPE consistency and series uniqueness.
func (r *Registry) add(name, help string, kind metricKind, s *series) {
	checkName(name)
	for _, l := range s.labels {
		checkLabelName(l.Name)
	}
	s.sig = signature(s.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	}
	if f.expand != nil {
		panic(fmt.Sprintf("metrics: family %q is dynamic; cannot add static series", name))
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: family %q registered as %s, not %s", name, f.kind, kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("metrics: family %q help text mismatch", name))
	}
	for _, ex := range f.series {
		if ex.sig == s.sig {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.sig))
		}
	}
	f.series = append(f.series, s)
}

func stripeCount(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 1024 {
		n = 1024
	}
	return n
}

// canonical copies and sorts labels by name (insertion sort; label sets are
// tiny and this runs once, at registration).
func canonical(labels Labels) Labels {
	out := append(Labels(nil), labels...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for i := 1; i < len(out); i++ {
		if out[i].Name == out[i-1].Name {
			panic(fmt.Sprintf("metrics: duplicate label %q", out[i].Name))
		}
	}
	return out
}

func checkName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
}

func checkLabelName(name string) {
	if !validName(name) || name == "le" {
		// "le" is reserved: the exposition writer owns histogram bucket labels.
		panic(fmt.Sprintf("metrics: invalid label name %q", name))
	}
}

// validName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]* (metric
// names; label names additionally exclude ":" by convention but Prometheus
// accepts them — we keep one check).
func validName(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
