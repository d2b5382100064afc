// Package spec provides a linearizability checker for concurrent-object
// histories, after Herlihy and Wing ([9], the paper's correctness condition)
// and the Wing–Gong search procedure.
//
// A history is a set of completed operations with real-time intervals
// [Call, Ret]. The checker searches for a linearization: a total order of
// the operations that (1) respects real time — if op A returned before op B
// was invoked, A precedes B — and (2) is legal for the object's sequential
// specification. The search tries every minimal operation (one whose call
// precedes the earliest return among remaining operations) at each step,
// with memoization on the (remaining-set, state) pair.
//
// It is exponential in the worst case, as linearizability checking must be;
// histories in this repository are small (tens of operations).
//
// The search is typed: a Model names its state type S and its operation
// type O, S is comparable and is the memo key itself, and nothing is boxed,
// formatted or type-asserted while a history is searched. The model this
// repository checks is CASRegisterModel over CASOp (strings and scalars):
// the serving tier's per-key register, audited online and offline.
//
// A Checker owns the search's scratch — the sorted copy of the history and
// the memo table — and reuses it from one history to the next, so checking
// a window with a Checker that has seen one of its size allocates nothing
// (TestCheckWindowZeroAllocs). That makes a Checker single-goroutine: it
// must not run two checks at once. The package-level Check and
// CheckPartitioned build a Checker per call and are safe anywhere.
package spec

import (
	"cmp"
	"fmt"
	"slices"
)

// Timed is what the search reads of an operation whatever its model: the
// real-time interval between invocation and response. Any monotonic counter
// works (the test harnesses use a shared atomic counter).
type Timed interface {
	Interval() (call, ret int64)
}

// Model is a sequential specification over states S and operations O. S is
// the search's memo key, so two states are the same state exactly when they
// are ==; a state whose dynamic type is not comparable panics the search.
type Model[S comparable, O Timed] interface {
	// Init returns the initial state.
	Init() S
	// Apply applies op to state, returning the new state and whether the
	// op's recorded output is legal at this point.
	Apply(state S, op O) (S, bool)
}

// node is one memo entry's key: the ops already linearized and the state
// they led to.
type node[S comparable] struct {
	done  uint64
	state S
}

// maxKeptMemo bounds the memo table a Checker carries from one history to
// the next: clear costs time in the table's capacity, so one pathological
// window must not tax every later check.
const maxKeptMemo = 1 << 12

// Checker checks histories against one model, reusing its scratch between
// calls. It is not safe for concurrent use.
type Checker[S comparable, O Timed] struct {
	model Model[S, O]
	// ops is the history being searched, sorted by call; call and ret are
	// its intervals, read out once so the search loops index plain arrays.
	ops       []O
	call, ret [MaxWindowOps]int64
	memo      map[node[S]]bool
}

// NewChecker returns a Checker for model.
func NewChecker[S comparable, O Timed](model Model[S, O]) *Checker[S, O] {
	return &Checker[S, O]{model: model, memo: make(map[node[S]]bool)}
}

// Check reports whether history is linearizable with respect to model.
func Check[S comparable, O Timed](model Model[S, O], history []O) bool {
	return NewChecker(model).Check(history)
}

// Check reports whether history is linearizable with respect to the
// checker's model. It leaves history as it found it.
func (c *Checker[S, O]) Check(history []O) bool {
	n := len(history)
	if n == 0 {
		return true
	}
	if n > MaxWindowOps {
		// The bitmask memoization covers up to 63 ops; histories here are
		// far smaller. Refuse loudly rather than silently mis-checking.
		panic(fmt.Sprintf("spec: history too large (%d ops, max %d)", n, MaxWindowOps))
	}
	c.ops = append(c.ops[:0], history...)
	slices.SortFunc(c.ops, func(a, b O) int {
		ac, _ := a.Interval()
		bc, _ := b.Interval()
		return cmp.Compare(ac, bc)
	})
	for i, op := range c.ops {
		c.call[i], c.ret[i] = op.Interval()
	}
	if len(c.memo) > maxKeptMemo {
		c.memo = make(map[node[S]]bool)
	} else {
		clear(c.memo)
	}
	return c.search(0, c.model.Init())
}

// search is the Wing–Gong step: done is the set of ops already linearized,
// state what they led to.
func (c *Checker[S, O]) search(done uint64, state S) bool {
	n := len(c.ops)
	if done == (uint64(1)<<uint(n))-1 {
		return true
	}
	key := node[S]{done, state}
	if v, ok := c.memo[key]; ok {
		return v
	}
	// Minimal return among remaining ops bounds which ops may go first:
	// an op whose call is after some remaining op's return cannot be
	// linearized before it.
	minRet := int64(1<<62 - 1)
	for i := 0; i < n; i++ {
		if done&(1<<uint(i)) == 0 && c.ret[i] < minRet {
			minRet = c.ret[i]
		}
	}
	ok := false
	for i := 0; i < n && !ok; i++ {
		if done&(1<<uint(i)) != 0 || c.call[i] > minRet {
			continue
		}
		if next, legal := c.model.Apply(state, c.ops[i]); legal {
			ok = c.search(done|1<<uint(i), next)
		}
	}
	c.memo[key] = ok
	return ok
}
