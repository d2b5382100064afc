package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync/atomic"
	"time"
)

// layer names a span by the module whose public call it brackets.
type layer uint8

const (
	layerService layer = iota
	layerWire
	layerCluster
)

func (l layer) String() string { return [...]string{"service", "wire", "cluster"}[l] }

// span is one timed call into a layer. It holds no pointers, so the
// preallocated span table is never scanned by the collector.
type span struct {
	trace  uint64 // first Op.ID of the call; spans of one request share it
	start  int64  // ns since the recorder's epoch
	end    int64
	parent int32 // index of the span that caused this one; -1 for a root (set by link)
	name   layer
}

// recorder keeps spans in a fixed table and writes them out only after the
// run. add is one atomic add and one store; spans past the capacity are
// counted and dropped rather than grown into, so recording never allocates.
type recorder struct {
	epoch   time.Time
	enabled atomic.Bool
	next    atomic.Int64
	spans   []span
}

// spansPerSecond sizes the span table: the busiest workload (wire-single)
// records two spans per op at ≈ 75k ops/s.
const spansPerSecond = 200_000

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity)}
}

// on reports whether spans are being kept; a nil recorder keeps none.
func (r *recorder) on() bool { return r != nil && r.enabled.Load() }

func (r *recorder) add(name layer, trace uint64, start, end time.Time) {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		return
	}
	r.spans[i] = span{trace: trace, start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch)), parent: -1, name: name}
}

// recorded returns the kept spans and how many were dropped at capacity.
// Call it only after every recording goroutine has stopped.
func (r *recorder) recorded() (kept []span, dropped int64) {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		return r.spans, n - int64(len(r.spans))
	}
	return r.spans[:n], 0
}

// link sets the parent of every non-root span to the root span (a span named
// root) that carries the same trace id.
func link(spans []span, root layer) {
	roots := make(map[uint64]int32, len(spans)/2)
	for i, s := range spans {
		if s.name == root {
			roots[s.trace] = int32(i)
		}
	}
	for i := range spans {
		if spans[i].name == root {
			continue
		}
		if p, ok := roots[spans[i].trace]; ok {
			spans[i].parent = p
		}
	}
}

// selfTime is s's duration minus the part of its interval that its children
// cover; overlapping children are counted once and the parts of a child
// outside s not at all.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	covered, reach := int64(0), s.start
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		covered += v[1] - max(v[0], reach)
		reach = v[1]
	}
	return s.end - s.start - covered
}

// durations returns the sorted durations (ns) of the spans named name.
func durations(spans []span, name layer) []int64 {
	var d []int64
	for _, s := range spans {
		if s.name == name {
			d = append(d, s.end-s.start)
		}
	}
	slices.Sort(d)
	return d
}

// selfTimes returns the sorted self times (ns) of the linked root spans.
func selfTimes(spans []span, root layer) []int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var d []int64
	for i, s := range spans {
		if s.name == root {
			d = append(d, selfTime(s, children[int32(i)]))
		}
	}
	slices.Sort(d)
	return d
}

// dumpSpans writes one JSON object per span.
func dumpSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		err := enc.Encode(struct {
			Name    string `json:"name"`
			Trace   uint64 `json:"trace"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Parent  int32  `json:"parent"`
		}{s.name.String(), s.trace, s.start, s.end, s.parent})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// tailSteps are the percentiles a latency tail may be reported at.
var tailSteps = []int{99, 95, 90, 75, 50}

// rank is the nearest rank (1-based) of the pct-th percentile among n samples.
func rank(pct, n int) int { return max((pct*n+99)/100, 1) }

// tail returns the highest percentile of tailSteps that has at least ten
// samples beyond it (the median when none has), the sample at its nearest
// rank — never an index past the data — and how many samples lie beyond it.
// sorted must be ascending and non-empty.
func tail(sorted []int64) (pct int, v int64, beyond int) {
	n := len(sorted)
	pct = tailSteps[len(tailSteps)-1]
	for _, step := range tailSteps {
		if n-rank(step, n) >= 10 {
			pct = step
			break
		}
	}
	return pct, sorted[rank(pct, n)-1], n - rank(pct, n)
}

// median is the 50th percentile of ascending, non-empty samples.
func median(sorted []int64) int64 { return sorted[rank(50, len(sorted))-1] }
