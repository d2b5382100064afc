package main

import (
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/universal"
	"repro/internal/wire"
)

// calibrate spins memory.Counter.FetchAdd on one goroutine for d and returns
// ns per add. No change to this repository should move it: when it moves,
// the machine changed.
func calibrate(d time.Duration) float64 {
	const chunk = 1 << 16
	c := memory.NewCounter("calibrator")
	p := sched.FreeProc(0)
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < chunk; i++ {
			c.FetchAdd(p, 1)
		}
		n += chunk
	}
	return float64(time.Since(start)) / float64(n)
}

// universalExecNs times Replica.Exec on a shard's log configuration — one
// replica over a Log of memory.Once cells, truncated as it goes — and
// returns ns per Exec.
func universalExecNs() float64 {
	const n = 1 << 18
	log := universal.NewLog[int](func(int) universal.Proposer[int] { return memory.NewOnce[int]("cell") })
	rep := universal.NewReplica[int, int](log, 0, func(s, c int) int { return s + c })
	p := sched.FreeProc(0)
	start := time.Now()
	for i := 1; i <= n; i++ {
		rep.Exec(p, i)
		if i%64 == 0 {
			log.Truncate(rep.Pos())
		}
	}
	return float64(time.Since(start)) / n
}

// codecProbe encodes and decodes the workload's own ops the way a wire
// round trip does — request frame, decode, response frame, decode — and
// returns ns and frame bytes per op.
func codecProbe(w workload, g *gen) (nsPerOp, bytesPerOp float64, err error) {
	const (
		probeOps = 1 << 12 // distinct ops, reused every pass
		passes   = 1 << 7
	)
	ops := make([]service.Op, probeOps)
	g.fill(ops)
	results := make([]service.Result, probeOps)
	for i, op := range ops {
		results[i] = service.Result{Val: op.Val, OK: true}
	}
	var (
		req, resp []byte
		decOps    []service.Op
		decRes    []service.Result
		bytes     int
	)
	start := time.Now()
	for pass := 0; pass < passes; pass++ {
		for off := 0; off < probeOps; off += w.batch {
			if w.batch == 1 {
				if req, err = wire.AppendOpFrame(req[:0], 1, ops[off]); err != nil {
					return 0, 0, err
				}
				if _, _, err = wire.DecodeOp(req[wire.HeaderSize:]); err != nil {
					return 0, 0, err
				}
				resp = wire.AppendResultFrame(resp[:0], 1, results[off])
				if _, _, err = wire.DecodeResult(resp[wire.HeaderSize:]); err != nil {
					return 0, 0, err
				}
			} else {
				if req, err = wire.AppendBatchFrame(req[:0], 1, ops[off:off+w.batch]); err != nil {
					return 0, 0, err
				}
				if decOps, err = wire.DecodeBatch(req[wire.HeaderSize:], decOps[:0]); err != nil {
					return 0, 0, err
				}
				resp = wire.AppendResultsFrame(resp[:0], 1, results[off:off+w.batch])
				if decRes, err = wire.DecodeResults(resp[wire.HeaderSize:], decRes[:0]); err != nil {
					return 0, 0, err
				}
			}
			bytes += len(req) + len(resp)
		}
	}
	total := float64(probeOps * passes)
	return float64(time.Since(start)) / total, float64(bytes) / total, nil
}
