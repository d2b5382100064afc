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
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Op is one completed operation in a history.
type Op struct {
	// Proc is the invoking process.
	Proc int
	// Call and Ret are the invocation and response times. Any monotonic
	// counter works (the test harnesses use a shared atomic counter).
	Call, Ret int64
	// Method names the operation.
	Method string
	// In and Out are the input and output values.
	In, Out any
}

// Model is a sequential specification. Apply runs op against the state and
// reports whether op's output is legal, returning the successor state. State
// values must be treated as immutable; Key must be injective on states.
type Model interface {
	// Init returns the initial state.
	Init() any
	// Apply applies op to state, returning the new state and whether the
	// op's recorded output is legal at this point.
	Apply(state any, op Op) (any, bool)
	// Key returns a canonical encoding of a state for memoization.
	Key(state any) string
}

// Check reports whether history is linearizable with respect to model.
func Check(model Model, history []Op) bool {
	n := len(history)
	if n == 0 {
		return true
	}
	if n > 63 {
		// The bitmask memoization covers up to 63 ops; histories here are
		// far smaller. Refuse loudly rather than silently mis-checking.
		panic(fmt.Sprintf("spec: history too large (%d ops, max 63)", n))
	}
	ops := append([]Op(nil), history...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Call < ops[j].Call })

	type memoKey struct {
		done  uint64
		state string
	}
	memo := make(map[memoKey]bool)
	var search func(done uint64, state any) bool
	search = func(done uint64, state any) bool {
		if done == (uint64(1)<<uint(n))-1 {
			return true
		}
		key := memoKey{done, model.Key(state)}
		if v, ok := memo[key]; ok {
			return v
		}
		// Minimal return among remaining ops bounds which ops may go first:
		// an op whose call is after some remaining op's return cannot be
		// linearized before it.
		minRet := int64(1<<62 - 1)
		for i := 0; i < n; i++ {
			if done&(1<<uint(i)) == 0 && ops[i].Ret < minRet {
				minRet = ops[i].Ret
			}
		}
		ok := false
		for i := 0; i < n && !ok; i++ {
			if done&(1<<uint(i)) != 0 {
				continue
			}
			if ops[i].Call > minRet {
				continue
			}
			if next, legal := model.Apply(state, ops[i]); legal {
				ok = search(done|1<<uint(i), next)
			}
		}
		memo[key] = ok
		return ok
	}
	return search(0, model.Init())
}

// RegisterModel is the sequential specification of a read/write register.
// Reads output the last written value; Init's value is the initial content.
type RegisterModel struct {
	// Initial is the register's initial value.
	Initial any
}

var _ Model = RegisterModel{}

// Init implements Model.
func (m RegisterModel) Init() any { return m.Initial }

// Apply implements Model. Methods: "write" (In = value) and "read"
// (Out = value).
func (m RegisterModel) Apply(state any, op Op) (any, bool) {
	switch op.Method {
	case "write":
		return op.In, true
	case "read":
		return state, state == op.Out
	default:
		return state, false
	}
}

// Key implements Model.
func (m RegisterModel) Key(state any) string { return fmt.Sprint(state) }

// queueState is an immutable FIFO snapshot encoded as a joined string.
type queueState struct{ items []any }

// QueueModel is the sequential specification of a FIFO queue with
// non-blocking dequeue. Methods: "enq" (In = value), "deq" (Out = value or
// nil for empty).
type QueueModel struct{}

var _ Model = QueueModel{}

// Init implements Model.
func (QueueModel) Init() any { return queueState{} }

// Apply implements Model.
func (QueueModel) Apply(state any, op Op) (any, bool) {
	st, ok := state.(queueState)
	if !ok {
		return state, false
	}
	switch op.Method {
	case "enq":
		items := make([]any, 0, len(st.items)+1)
		items = append(items, st.items...)
		items = append(items, op.In)
		return queueState{items: items}, true
	case "deq":
		if len(st.items) == 0 {
			return st, op.Out == nil
		}
		head := st.items[0]
		rest := append([]any(nil), st.items[1:]...)
		return queueState{items: rest}, head == op.Out
	default:
		return state, false
	}
}

// Key implements Model.
func (QueueModel) Key(state any) string {
	st, _ := state.(queueState)
	parts := make([]string, len(st.items))
	for i, v := range st.items {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

// ConsensusModel is the sequential specification of single-shot consensus:
// the first propose fixes the decision; every propose outputs it.
type ConsensusModel struct{}

var _ Model = ConsensusModel{}

// Init implements Model.
func (ConsensusModel) Init() any { return nil }

// Apply implements Model. Method: "propose" (In = proposal, Out = decision).
func (ConsensusModel) Apply(state any, op Op) (any, bool) {
	if op.Method != "propose" {
		return state, false
	}
	if state == nil {
		// First linearized propose decides its own value.
		return op.In, op.Out == op.In
	}
	return state, op.Out == state
}

// Key implements Model.
func (ConsensusModel) Key(state any) string { return fmt.Sprint(state) }
