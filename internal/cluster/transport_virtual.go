package cluster

import (
	"math/rand/v2"
	"sort"

	"repro/internal/sched"
)

// NetPlan is the virtual network's fault plan: drawn per message from the
// plan's own PCG stream, so the whole network behaviour is a pure function
// of (plan, schedule). The zero value is a reliable in-order network with
// unit delay.
type NetPlan struct {
	// DelayMin/DelayMax bound the per-message delivery delay (steps),
	// drawn uniformly. Zero values mean [1, 1] — unit delay keeps the
	// network causal (a message is never received at its send time).
	DelayMin, DelayMax int64
	// LossFrac and DupFrac are per-message loss and duplication
	// probabilities (self-sends are exempt: a node's loopback is memory,
	// not network).
	LossFrac, DupFrac float64
	// Partitions sever the network between GroupA and its complement
	// during [From, To) — messages crossing the cut are dropped at send
	// time.
	Partitions []Partition
	// Seed keys the plan's PCG stream.
	Seed uint64
}

// Partition is one scheduled network cut.
type Partition struct {
	From, To int64
	GroupA   []NodeID
}

func (pl NetPlan) delayBounds() (int64, int64) {
	lo, hi := pl.DelayMin, pl.DelayMax
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// VirtualNet is the simulated network of one cluster run: a per-node
// priority queue of (deliverAt, seq)-ordered deliveries, advanced by the
// run's own virtual clock. All state is mutated under the step token, so
// there is no locking and every run is deterministic.
type VirtualNet struct {
	plan NetPlan
	rng  *rand.Rand
	eps  []*vEndpoint
	seq  uint64 // global tiebreak: same-step deliveries keep send order

	// Drop accounting, for scenario oracles and debugging.
	Lost, Duplicated, Cut int64
}

// NewVirtualNet builds the simulated network for nodes [0, n).
func NewVirtualNet(n int, plan NetPlan) *VirtualNet {
	vn := &VirtualNet{
		plan: plan,
		rng:  rand.New(rand.NewPCG(plan.Seed, plan.Seed^0x9e3779b97f4a7c15)),
	}
	for i := 0; i < n; i++ {
		vn.eps = append(vn.eps, &vEndpoint{net: vn, id: NodeID(i)})
	}
	return vn
}

// Endpoint returns node id's Transport view of the network.
func (vn *VirtualNet) Endpoint(id NodeID) Transport { return vn.eps[id] }

func (vn *VirtualNet) cut(now int64, a, b NodeID) bool {
	for _, p := range vn.plan.Partitions {
		if now < p.From || now >= p.To {
			continue
		}
		inA := func(id NodeID) bool {
			for _, g := range p.GroupA {
				if g == id {
					return true
				}
			}
			return false
		}
		if inA(a) != inA(b) {
			return true
		}
	}
	return false
}

type vDelivery struct {
	at  int64
	seq uint64
	m   *message
}

// vSend is one buffered outbound message awaiting flush.
type vSend struct {
	to NodeID
	m  *message
}

// vEndpoint is one node's side of the VirtualNet.
type vEndpoint struct {
	net    *VirtualNet
	id     NodeID
	q      []vDelivery // sorted by (at, seq)
	pend   []vSend     // sends buffered since the last flush
	closed bool
	drops  *dropCounters // set by cluster.New; nil-safe
}

func (ep *vEndpoint) insert(at int64, m *message) {
	if ep.closed {
		return
	}
	ep.net.seq++
	d := vDelivery{at: at, seq: ep.net.seq, m: m}
	i := sort.Search(len(ep.q), func(i int) bool {
		return ep.q[i].at > d.at || (ep.q[i].at == d.at && ep.q[i].seq > d.seq)
	})
	ep.q = append(ep.q, vDelivery{})
	copy(ep.q[i+1:], ep.q[i:])
	ep.q[i] = d
}

// send buffers a copy of the message for the next flush; self-sends bypass
// the buffer (a node's loopback is memory, not network) with unit delay.
func (ep *vEndpoint) send(p *sched.Proc, to NodeID, lent *message) {
	m := &message{}
	m.copyFrom(lent)
	if to == ep.id {
		ep.net.eps[to].insert(p.Now()+1, m)
		return
	}
	ep.pend = append(ep.pend, vSend{to: to, m: m})
}

// flush delivers the buffered burst, one delivery decision per
// destination: every message of a peer's burst shares one loss, delay and
// duplication draw, mirroring the free transport writing the burst as a
// single TCP segment run that arrives (or is lost with the connection)
// as a unit. Decisions are drawn per destination in first-send order, so
// the whole network stays a pure function of (plan, schedule).
func (ep *vEndpoint) flush(p *sched.Proc) {
	if len(ep.pend) == 0 {
		return
	}
	pend := ep.pend
	ep.pend = ep.pend[:0]
	now := p.Now()
	vn := ep.net
	for i := range pend {
		if pend[i].m == nil {
			continue // already delivered with an earlier destination's burst
		}
		to := pend[i].to
		dst := vn.eps[to]
		if vn.cut(now, ep.id, to) {
			for j := i; j < len(pend); j++ {
				if pend[j].m != nil && pend[j].to == to {
					pend[j].m = nil
					vn.Cut++
					ep.drops.inc(dropNetCut, 1)
				}
			}
			continue
		}
		// Draw loss, delay, dup in a fixed order so the stream stays
		// aligned whatever the outcome.
		lost := vn.plan.LossFrac > 0 && vn.rng.Float64() < vn.plan.LossFrac
		lo, hi := vn.plan.delayBounds()
		delay := lo + vn.rng.Int64N(hi-lo+1)
		dup := vn.plan.DupFrac > 0 && vn.rng.Float64() < vn.plan.DupFrac
		dupDelay := now + lo + vn.rng.Int64N(hi-lo+1)
		for j := i; j < len(pend); j++ {
			if pend[j].m == nil || pend[j].to != to {
				continue
			}
			m := pend[j].m
			pend[j].m = nil
			if lost {
				vn.Lost++
				ep.drops.inc(dropNetLoss, 1)
			} else {
				dst.insert(now+delay, m)
			}
			if dup {
				vn.Duplicated++
				dst.insert(dupDelay, m)
			}
		}
	}
}

func (ep *vEndpoint) inject(p *sched.Proc, m *message) bool {
	if ep.closed {
		return false
	}
	ep.insert(p.Now(), m)
	return true
}

// drain seals the endpoint and returns the undelivered queue in delivery
// order. Network messages in the tail are simply dropped by the caller;
// what matters is that injected client calls are surfaced for failing.
func (ep *vEndpoint) drain(_ *sched.Proc) []*message {
	ep.closed = true
	out := make([]*message, 0, len(ep.q))
	for _, d := range ep.q {
		out = append(out, d.m)
	}
	ep.q = nil
	return out
}

func (ep *vEndpoint) recv(p *sched.Proc, deadline int64) (*message, bool) {
	p.Park(func() bool {
		if ep.closed || p.Now() >= deadline {
			return true
		}
		return len(ep.q) > 0 && ep.q[0].at <= p.Now()
	})
	if len(ep.q) > 0 && ep.q[0].at <= p.Now() && !ep.closed {
		m := ep.q[0].m
		ep.q = ep.q[1:]
		return m, true
	}
	return nil, false
}

// tryRecv pops an already-due delivery without parking, so the event loop
// can drain a whole burst within one wakeup.
func (ep *vEndpoint) tryRecv(p *sched.Proc) (*message, bool) {
	if !ep.closed && len(ep.q) > 0 && ep.q[0].at <= p.Now() {
		m := ep.q[0].m
		ep.q = ep.q[1:]
		return m, true
	}
	return nil, false
}

func (ep *vEndpoint) release(*message) {}

func (ep *vEndpoint) now(p *sched.Proc) int64 { return p.Now() }

func (ep *vEndpoint) close() {
	ep.closed = true
	ep.q = nil
	ep.pend = nil
}
