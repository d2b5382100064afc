package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// counters is a snapshot of the counts the layers keep themselves; the
// per-layer metrics are differences of two of them across the traced window.
type counters struct {
	ops, batches    int64   // service: commands and log commands committed, all stores
	commitN         int64   // service: submit→commit latency samples, all stores
	commitNs        float64 // and their sum
	applyN          int64   // the same over the shard owners' replicas only
	applyNs         float64
	audit           service.AuditStats // spec: summed over all stores
	entries         uint64             // cluster: Σ over shards of the owner's committed frontier
	msgs, dropped   float64            // cluster: messages sent, frames dropped, all nodes
	retries, elects int64
	redirects       int64
	followerLagMax  uint64 // cluster: largest owner frontier − slowest follower frontier
}

func (s *sut) counters() (counters, error) {
	var c counters
	for _, st := range s.stores() {
		stats := st.Stats()
		c.ops += stats.TotalOps
		c.batches += stats.Batches
		n, ns := latencySum(stats)
		c.commitN += n
		c.commitNs += ns
		c.audit.SampledOps += stats.Audit.SampledOps
		c.audit.DroppedOps += stats.Audit.DroppedOps
		c.audit.WindowsChecked += stats.Audit.WindowsChecked
		c.audit.Gaps += stats.Audit.Gaps
	}
	for sh := 0; sh < shards && s.nodes != nil; sh++ {
		n, ns := latencySum(s.replicas[owner(sh)][sh].Stats())
		c.applyN += n
		c.applyNs += ns
	}
	statuses := make([]cluster.Status, len(s.nodes))
	for i, n := range s.nodes {
		st := n.Status()
		statuses[i] = st
		c.retries += st.RouteRetries
		c.redirects += st.Redirects
		c.elects += st.Elections
		for sh, shard := range st.Shards {
			if owner(sh) == i {
				c.entries += shard.Committed
			}
		}
		sent, dropped, err := frameCounts(n)
		if err != nil {
			return c, err
		}
		c.msgs += sent
		c.dropped += dropped
	}
	for sh := 0; sh < shards && s.nodes != nil; sh++ {
		front := statuses[owner(sh)].Shards[sh].Frontier
		for _, st := range statuses {
			if f := st.Shards[sh].Frontier; f < front {
				c.followerLagMax = max(c.followerLagMax, front-f)
			}
		}
	}
	return c, nil
}

// frameCounts reads how many replication messages a node has sent and how
// many frames it has dropped from the node's Prometheus exposition.
func frameCounts(n *cluster.Node) (sent, dropped float64, err error) {
	var buf bytes.Buffer
	if err := n.Metrics().WriteProm(&buf); err != nil {
		return 0, 0, err
	}
	if sent, err = promSum(buf.String(), "cluster_messages_sent_total"); err != nil {
		return 0, 0, err
	}
	dropped, err = promSum(buf.String(), "cluster_frames_dropped_total")
	return sent, dropped, err
}

// latencySum returns the count and the sum (ns) of a store's server-side
// submit→commit latencies over every op kind.
func latencySum(st service.Stats) (n int64, ns float64) {
	for _, l := range st.Latency {
		n += l.Count
		ns += float64(l.Count) * l.MeanNs
	}
	return n, ns
}

// promSum adds up every series of one counter family in Prometheus text
// exposition (no timestamps, as internal/metrics writes it).
func promSum(text, family string) (float64, error) {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		sum += v
	}
	return sum, nil
}

// failoverProbe closes node 0, the owner of shards 0 and 3, and times how
// long clients on node 1 wait for the first answered op on each of them,
// capped at failoverCap. It returns the longer wait in ms and how many of
// the shards never answered. The time is quantised by the cluster's
// RouteTimeout and OwnerTimeout, which is why it is reported and not gated.
func failoverProbe(s *sut) (ms float64, unanswered int) {
	const failoverCap = 5 * time.Second
	var affected []int
	for sh := 0; sh < shards; sh++ {
		if owner(sh) == 0 {
			affected = append(affected, sh)
		}
	}
	waits := make([]time.Duration, len(affected))
	errs := make([]error, len(affected))
	ctx, cancel := context.WithTimeout(context.Background(), failoverCap)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.nodes[0].Close() //nolint:errcheck // sut.close reports a node that fails to close
	}()
	for i, sh := range affected {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := service.Op{Kind: service.OpPut, Key: shardKey(sh), Val: "failover", ID: 1<<63 + 1<<32 + uint64(sh)}
			_, errs[i] = s.nodes[1].Do(ctx, op)
			waits[i] = time.Since(start)
		}()
	}
	wg.Wait()
	var longest time.Duration
	for i, w := range waits {
		longest = max(longest, w)
		if errs[i] != nil {
			unanswered++
		}
	}
	return float64(longest) / 1e6, unanswered
}
