// Package explore is an explicit-state model checker implementing the proof
// machinery of Section 3.3 of the paper: runs, extensions, valence,
// compatibility, deciders, and critical configurations.
//
// A Protocol is a deterministic explicit-state model of an algorithm (each
// process has at most one enabled event per state, matching the paper's
// determinism assumption). The explorer builds the reachable state graph for
// a fixed input assignment and computes, for every state, the set of decision
// values reachable in its extensions. In the paper's vocabulary:
//
//   - a state is v-valent if only v is reachable (Section 3.3);
//   - a state is bivalent if both 0 and 1 are reachable;
//   - two univalent states are compatible if they have the same valence;
//   - process p is a decider at state x if for every extension y of x, the
//     state y·p is univalent.
//
// The package provides exhaustive checks used by the E8 experiments: Lemma 3
// (every obstruction-free consensus object has a bivalent empty run), the
// Lemma 4 bivalence-preserving scheduling discipline (locating a decider),
// and the Lemma 2/5 conclusion that at a critical configuration the pending
// events of the deciding processes address the same non-register object. It
// also checks agreement over the entire reachable graph (used to show that
// test&set solves 2-process consensus but not 3-process consensus,
// Section 3.5), and searches for livelock pumps (fault-free non-deciding
// infinite runs, the executable content of Theorem 4).
//
// Two engines build the same graph: Explore is the sequential BFS, and
// ExploreParallel (parallel.go) shards the interning table and drives a
// worker pool over per-shard frontier queues. Both produce graphs whose
// Size, valences and analysis verdicts are identical; only the internal
// node numbering may differ.
package explore

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// State is a protocol state. Implementations must make the key encoding
// injective over reachable states.
type State interface {
	// AppendKey appends a compact binary encoding of the state to dst and
	// returns the extended slice. The encoding must be injective over the
	// reachable states of one exploration (it may omit components that are
	// constant across the run, such as the input assignment).
	AppendKey(dst []byte) []byte
}

// boolByte encodes a bool as one key byte.
func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Access describes the shared object a process's pending event addresses.
type Access struct {
	Object     string
	IsRegister bool
}

// Protocol is a deterministic explicit-state model.
type Protocol interface {
	// N returns the number of processes.
	N() int
	// Initial returns the initial state for the given per-process inputs.
	Initial(inputs []int) State
	// Enabled reports whether pid has a pending event at s.
	Enabled(s State, pid int) bool
	// Next returns the state after pid's pending event. It must only be
	// called when Enabled(s, pid) is true.
	Next(s State, pid int) State
	// Decision returns pid's decided value at s, if it has decided.
	Decision(s State, pid int) (int, bool)
	// Access describes pid's pending event at s. It must only be called when
	// Enabled(s, pid) is true.
	Access(s State, pid int) Access
}

// Valence is the set of decision values reachable from a state, as a bitmask
// (bit v set means value v is reachable in some extension).
type Valence uint16

// Bivalent reports whether at least two distinct decision values are
// reachable.
func (v Valence) Bivalent() bool { return bits.OnesCount16(uint16(v)) >= 2 }

// Univalent reports whether exactly one decision value is reachable.
func (v Valence) Univalent() bool { return bits.OnesCount16(uint16(v)) == 1 }

// None reports whether no decision is reachable.
func (v Valence) None() bool { return v == 0 }

// Compatible reports whether two univalent valences agree (Section 3.3:
// "two univalent runs are compatible if they have the same valence").
func (v Valence) Compatible(o Valence) bool { return v == o }

// Has reports whether value val is reachable.
func (v Valence) Has(val int) bool { return v&(1<<uint(val)) != 0 }

// String renders the valence in the paper's vocabulary.
func (v Valence) String() string {
	switch {
	case v.None():
		return "undecided"
	case v.Bivalent():
		return "bivalent"
	default:
		for i := 0; i < 16; i++ {
			if v.Has(i) {
				return fmt.Sprintf("%d-valent", i)
			}
		}
		return "?"
	}
}

// ErrLimit is returned when exploration exceeds the state budget.
var ErrLimit = errors.New("explore: state limit exceeded")

// node is one reachable state.
type node struct {
	state State
	// succ[pid] is the index of the pid-successor, or -1 when pid is not
	// enabled.
	succ []int32
	// local is the bitmask of values decided by some process *at* this state.
	local Valence
	// valence is the fixpoint over all extensions.
	valence Valence
}

// Graph is the reachable state graph of a protocol under one input
// assignment, with valences computed. Graphs are built by Explore or
// ExploreParallel; the analysis methods are not safe for concurrent use on
// one Graph (they share a memoized reachability cache), but they parallelize
// internally over node ranges when the graph was built with multiple
// workers.
type Graph struct {
	p       Protocol
	nodes   []node
	index   map[string]int32
	init    int32
	workers int
	keyBuf  []byte
	// reach memoizes the most recent reachableFrom results keyed by start
	// index, so the decider searches (FindDecider followed by IsDecider on
	// its result, as in the E8 critical-pair experiment) do not recompute
	// reachability per call. reachOrder evicts FIFO at reachCacheMax
	// entries: the reuse pattern is "the last few starts", so a small
	// window gives the speedup without pinning Size()-byte slices per
	// FindDecider iteration.
	reach      map[int][]bool
	reachOrder []int
}

// reachCacheMax bounds the memoized reachability sets held by a Graph
// (each entry is Size() bytes).
const reachCacheMax = 8

// parallelThreshold is the graph size below which the analysis passes stay
// sequential even on a multi-worker graph: goroutine fan-out costs more than
// it saves on small graphs.
const parallelThreshold = 4096

// localValence returns the bitmask of values decided by some process at s.
func localValence(p Protocol, s State) Valence {
	var local Valence
	for pid := 0; pid < p.N(); pid++ {
		if v, ok := p.Decision(s, pid); ok && v >= 0 && v < 16 {
			local |= 1 << uint(v)
		}
	}
	return local
}

// Explore builds the reachable graph from the protocol's initial state for
// the given inputs, visiting at most limit states, and computes all
// valences. It returns ErrLimit if the budget is exceeded.
func Explore(p Protocol, inputs []int, limit int) (*Graph, error) {
	return exploreSeq(p, inputs, limit, 1)
}

// exploreSeq is the sequential BFS engine; workers only records how many
// goroutines the analysis passes may use.
func exploreSeq(p Protocol, inputs []int, limit, workers int) (*Graph, error) {
	g := &Graph{p: p, index: make(map[string]int32), workers: workers}
	s0 := p.Initial(inputs)
	g.init = g.intern(s0)
	// BFS.
	for head := 0; head < len(g.nodes); head++ {
		if len(g.nodes) > limit {
			return nil, ErrLimit
		}
		nd := &g.nodes[head]
		st := nd.state
		for pid := 0; pid < p.N(); pid++ {
			if !p.Enabled(st, pid) {
				nd.succ[pid] = -1
				continue
			}
			nxt := p.Next(st, pid)
			nd.succ[pid] = g.intern(nxt)
			nd = &g.nodes[head] // intern may grow the slice
		}
	}
	g.computeValence()
	return g, nil
}

func (g *Graph) intern(s State) int32 {
	g.keyBuf = s.AppendKey(g.keyBuf[:0])
	if idx, ok := g.index[string(g.keyBuf)]; ok {
		return idx
	}
	idx := int32(len(g.nodes))
	local := localValence(g.p, s)
	g.nodes = append(g.nodes, node{
		state:   s,
		succ:    make([]int32, g.p.N()),
		local:   local,
		valence: local,
	})
	g.index[string(g.keyBuf)] = idx
	return idx
}

// computeValence propagates decision reachability backwards to a fixpoint
// (the graph may contain cycles, so iterative sweeps over the frozen edge
// arrays are used; no recursion). On multi-worker graphs the sweep is a
// Jacobi iteration parallelized over node ranges: each round reads the
// previous round's valences and writes a fresh array, so rounds are
// race-free and the fixpoint — being the least fixpoint of a monotone
// function — is identical to the sequential one.
func (g *Graph) computeValence() {
	if g.workers > 1 && len(g.nodes) >= parallelThreshold {
		g.computeValencePar()
		return
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.nodes) - 1; i >= 0; i-- {
			nd := &g.nodes[i]
			v := nd.valence
			for _, s := range nd.succ {
				if s >= 0 {
					v |= g.nodes[s].valence
				}
			}
			if v != nd.valence {
				nd.valence = v
				changed = true
			}
		}
	}
}

func (g *Graph) computeValencePar() {
	n := len(g.nodes)
	cur := make([]Valence, n)
	next := make([]Valence, n)
	for i := range g.nodes {
		cur[i] = g.nodes[i].local
	}
	for {
		var changed atomic.Bool
		parallelRanges(n, g.workers, func(lo, hi int) {
			dirty := false
			for i := lo; i < hi; i++ {
				v := cur[i]
				for _, s := range g.nodes[i].succ {
					if s >= 0 {
						v |= cur[s]
					}
				}
				next[i] = v
				if v != cur[i] {
					dirty = true
				}
			}
			if dirty {
				changed.Store(true)
			}
		})
		cur, next = next, cur
		if !changed.Load() {
			break
		}
	}
	for i := range g.nodes {
		g.nodes[i].valence = cur[i]
	}
}

// parallelRanges splits [0, n) into one contiguous range per worker and runs
// f on each concurrently.
func parallelRanges(n, workers int, f func(lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Size returns the number of reachable states.
func (g *Graph) Size() int { return len(g.nodes) }

// InitialValence returns the valence of the initial state.
func (g *Graph) InitialValence() Valence { return g.nodes[g.init].valence }

// ValenceOf returns the valence of state index idx.
func (g *Graph) ValenceOf(idx int) Valence { return g.nodes[idx].valence }

// StateOf returns the state at index idx.
func (g *Graph) StateOf(idx int) State { return g.nodes[idx].state }

// Initial returns the index of the initial state.
func (g *Graph) Initial() int { return int(g.init) }

// Succ returns the pid-successor of idx, or -1 when pid is not enabled.
func (g *Graph) Succ(idx, pid int) int { return int(g.nodes[idx].succ[pid]) }

// reachableFrom marks all states reachable from start (including start).
// Results are memoized on the Graph; callers must not mutate the returned
// slice. On multi-worker graphs the set is computed by a level-synchronous
// frontier sweep parallelized over frontier ranges; the reachable set is
// unique, so the result is independent of scheduling.
func (g *Graph) reachableFrom(start int) []bool {
	if seen, ok := g.reach[start]; ok {
		return seen
	}
	var seen []bool
	if g.workers > 1 && len(g.nodes) >= parallelThreshold {
		seen = g.reachablePar(start)
	} else {
		seen = make([]bool, len(g.nodes))
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range g.nodes[cur].succ {
				if s >= 0 && !seen[s] {
					seen[s] = true
					stack = append(stack, int(s))
				}
			}
		}
	}
	if g.reach == nil {
		g.reach = make(map[int][]bool, reachCacheMax)
	}
	if len(g.reachOrder) >= reachCacheMax {
		delete(g.reach, g.reachOrder[0])
		g.reachOrder = g.reachOrder[1:]
	}
	g.reach[start] = seen
	g.reachOrder = append(g.reachOrder, start)
	return seen
}

func (g *Graph) reachablePar(start int) []bool {
	marks := make([]int32, len(g.nodes))
	marks[start] = 1
	frontier := []int32{int32(start)}
	parts := make([][]int32, g.workers)
	for len(frontier) > 0 {
		if len(frontier) < parallelThreshold/4 {
			// Small frontier: expand inline rather than fanning out.
			next := frontier[:0:0]
			for _, cur := range frontier {
				for _, s := range g.nodes[cur].succ {
					if s >= 0 && atomic.CompareAndSwapInt32(&marks[s], 0, 1) {
						next = append(next, s)
					}
				}
			}
			frontier = next
			continue
		}
		chunk := (len(frontier) + g.workers - 1) / g.workers
		var wg sync.WaitGroup
		for w := 0; w < g.workers; w++ {
			lo := w * chunk
			if lo >= len(frontier) {
				parts[w] = nil
				continue
			}
			hi := lo + chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			wg.Add(1)
			go func(w int, chunk []int32) {
				defer wg.Done()
				var local []int32
				for _, cur := range chunk {
					for _, s := range g.nodes[cur].succ {
						if s >= 0 && atomic.CompareAndSwapInt32(&marks[s], 0, 1) {
							local = append(local, s)
						}
					}
				}
				parts[w] = local
			}(w, frontier[lo:hi])
		}
		wg.Wait()
		frontier = frontier[:0]
		for _, part := range parts {
			frontier = append(frontier, part...)
		}
	}
	seen := make([]bool, len(marks))
	for i, m := range marks {
		seen[i] = m != 0
	}
	return seen
}

// IsDecider reports whether process pid is a decider at state idx: for every
// extension y of idx, the state y·pid is univalent or y·pid = y (pid not
// enabled). This is the exhaustive version of the paper's definition.
func (g *Graph) IsDecider(idx, pid int) bool {
	seen := g.reachableFrom(idx)
	for i, ok := range seen {
		if !ok {
			continue
		}
		s := g.nodes[i].succ[pid]
		if s < 0 {
			continue // y·p = y when p is not enabled; vacuously fine
		}
		if g.nodes[s].valence.Bivalent() {
			return false
		}
	}
	return true
}

// FindDecider runs the bivalence-preserving scheduling discipline of
// Lemma 4: starting from the initial state, repeatedly move to a bivalent
// state of the form y·pid; when no such extension exists, pid is a decider
// at the current state. It returns the decider state's index, or -1 if the
// initial state is not bivalent or the discipline exceeds maxIter moves.
//
// When several extensions qualify, the one whose successor state has the
// smallest binary key is taken, so the walk — and whether it terminates
// within maxIter — is independent of the graph's internal node numbering
// (the sequential and parallel engines number nodes differently).
func (g *Graph) FindDecider(pid int, maxIter int) int {
	x := int(g.init)
	if !g.nodes[x].valence.Bivalent() {
		return -1
	}
	var bestKey, candKey []byte
	for iter := 0; iter < maxIter; iter++ {
		// Search the extensions of x for a y with y·pid bivalent, picking
		// the candidate y·pid with the smallest key.
		next := -1
		seen := g.reachableFrom(x)
		for i, ok := range seen {
			if !ok {
				continue
			}
			if !g.nodes[i].valence.Bivalent() {
				continue
			}
			s := g.nodes[i].succ[pid]
			if s < 0 || !g.nodes[s].valence.Bivalent() {
				continue
			}
			candKey = g.nodes[s].state.AppendKey(candKey[:0])
			if next == -1 || bytes.Compare(candKey, bestKey) < 0 {
				next = int(s)
				bestKey = append(bestKey[:0], candKey...)
			}
		}
		if next == -1 {
			return x // pid is a decider at x
		}
		x = next
	}
	return -1
}

// Critical describes a critical configuration in the sense of Lemmas 2 and
// 5: a bivalent state y and processes p, q whose one-step extensions y·p and
// y·q·p are univalent and incompatible.
type Critical struct {
	StateIdx int
	P, Q     int
	AccessP  Access
	AccessQ  Access
}

// FindCriticalPairs enumerates every critical configuration in the graph.
// Lemma 2 predicts that in each of them p and q access the same object and
// that object is not an atomic register; the caller asserts that. The set of
// configurations is numbering-independent; only the StateIdx fields depend
// on the engine's node order.
func (g *Graph) FindCriticalPairs() []Critical {
	var out []Critical
	n := g.p.N()
	for i := range g.nodes {
		nd := &g.nodes[i]
		if !nd.valence.Bivalent() {
			continue
		}
		for p := 0; p < n; p++ {
			sp := nd.succ[p]
			if sp < 0 || !g.nodes[sp].valence.Univalent() {
				continue
			}
			for q := 0; q < n; q++ {
				if q == p {
					continue
				}
				sq := nd.succ[q]
				if sq < 0 {
					continue
				}
				sqp := g.nodes[sq].succ[p]
				if sqp < 0 || !g.nodes[sqp].valence.Univalent() {
					continue
				}
				if g.nodes[sp].valence.Compatible(g.nodes[sqp].valence) {
					continue
				}
				out = append(out, Critical{
					StateIdx: i,
					P:        p,
					Q:        q,
					AccessP:  g.p.Access(nd.state, p),
					AccessQ:  g.p.Access(nd.state, q),
				})
			}
		}
	}
	return out
}

// AgreementViolation is a reachable state in which two processes have
// decided different values.
type AgreementViolation struct {
	StateIdx int
	P, Q     int
	VP, VQ   int
}

// CheckAgreement scans every reachable state for two processes that decided
// different values, returning the first violation found. The verdict is
// numbering-independent; the witness fields are not.
func (g *Graph) CheckAgreement() (AgreementViolation, bool) {
	n := g.p.N()
	for i := range g.nodes {
		st := g.nodes[i].state
		for p := 0; p < n; p++ {
			vp, ok := g.p.Decision(st, p)
			if !ok {
				continue
			}
			for q := p + 1; q < n; q++ {
				vq, ok := g.p.Decision(st, q)
				if ok && vq != vp {
					return AgreementViolation{StateIdx: i, P: p, Q: q, VP: vp, VQ: vq}, true
				}
			}
		}
	}
	return AgreementViolation{}, false
}

// CheckValidity verifies that every decided value in every reachable state
// is one of the inputs.
func (g *Graph) CheckValidity(inputs []int) bool {
	allowed := make(map[int]bool, len(inputs))
	for _, v := range inputs {
		allowed[v] = true
	}
	n := g.p.N()
	for i := range g.nodes {
		st := g.nodes[i].state
		for p := 0; p < n; p++ {
			if v, ok := g.p.Decision(st, p); ok && !allowed[v] {
				return false
			}
		}
	}
	return true
}

// FindReachable returns the index of a reachable state satisfying pred,
// searching from the given start index, or -1.
func (g *Graph) FindReachable(start int, pred func(State) bool) int {
	seen := g.reachableFrom(start)
	for i, ok := range seen {
		if ok && pred(g.nodes[i].state) {
			return i
		}
	}
	return -1
}

// SoloDecides reports whether running process pid alone from state idx leads
// to a decision by pid within maxSteps events — the operational reading of
// obstruction-free termination for explicit-state models.
func (g *Graph) SoloDecides(idx, pid, maxSteps int) bool {
	cur := idx
	for i := 0; i < maxSteps; i++ {
		if _, ok := g.p.Decision(g.nodes[cur].state, pid); ok {
			return true
		}
		nxt := g.nodes[cur].succ[pid]
		if nxt < 0 {
			_, ok := g.p.Decision(g.nodes[cur].state, pid)
			return ok
		}
		cur = int(nxt)
	}
	return false
}
