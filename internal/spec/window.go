// Service-scale checking support: the Wing–Gong search in Check is
// exponential in the history size, so histories harvested from live traffic
// (internal/service's online auditor) must be cut down before they reach
// the search. Two tools make that safe and explicit:
//
//   - CheckPartitioned checks every per-key projection of a keyed history
//     on its own. For objects whose keys are independent registers (a
//     key-value store), the whole history is linearizable iff every per-key
//     projection is, so partitioning loses nothing and turns one giant
//     search into many small ones.
//
//   - CheckBounded refuses oversized windows with an explicit Truncated
//     result instead of silently attempting (or worse, silently skipping)
//     an unbounded search. Callers count truncated windows and surface
//     them; a truncated window is "not audited", never "passed".
package spec

import "sort"

// MaxWindowOps is the hard ceiling on the ops CheckBounded will search:
// Check's bitmask memoization covers 63 operations, and windows near that
// size are already far beyond what an online auditor should attempt.
const MaxWindowOps = 63

// CheckResult is the outcome of a bounded linearizability check.
type CheckResult int

const (
	// Linearizable: the window has a valid linearization.
	Linearizable CheckResult = iota + 1
	// Violation: the window provably has no linearization.
	Violation
	// Truncated: the window exceeded the size bound and was not searched.
	Truncated
)

// String returns a human-readable result name.
func (r CheckResult) String() string {
	switch r {
	case Linearizable:
		return "linearizable"
	case Violation:
		return "violation"
	case Truncated:
		return "truncated"
	default:
		return "unknown"
	}
}

// CheckBounded checks history against the checker's model if it fits
// within maxOps operations, returning Truncated otherwise. maxOps <= 0 or
// maxOps > MaxWindowOps means MaxWindowOps. Unlike Check, it never panics
// on oversized histories.
func (c *Checker[S, O]) CheckBounded(history []O, maxOps int) CheckResult {
	if maxOps <= 0 || maxOps > MaxWindowOps {
		maxOps = MaxWindowOps
	}
	if len(history) > maxOps {
		return Truncated
	}
	if c.Check(history) {
		return Linearizable
	}
	return Violation
}

// KeyedOp couples one operation with the key it addressed, the input shape
// of CheckPartitioned (operations are key-agnostic; the store knows the
// routing).
type KeyedOp[O Timed] struct {
	Key string
	Op  O
}

// KeyVerdict is the outcome of checking one key's projection of a keyed
// history.
type KeyVerdict struct {
	Key    string
	Ops    int
	Result CheckResult
}

// CheckPartitioned checks every per-key projection of a keyed history
// against model — every key is its own object with the same specification
// — each bounded by maxOps (with CheckBounded's semantics). For a store
// whose per-key objects are independent, the whole history is linearizable
// iff every verdict is Linearizable, and a Truncated verdict means that
// key's slice of the history went unchecked. Verdicts are sorted by key, so
// the output is deterministic regardless of input order.
func CheckPartitioned[S comparable, O Timed](model Model[S, O], history []KeyedOp[O], maxOps int) []KeyVerdict {
	byKey := make(map[string][]O)
	for _, ko := range history {
		byKey[ko.Key] = append(byKey[ko.Key], ko.Op)
	}
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	c := NewChecker(model)
	out := make([]KeyVerdict, 0, len(keys))
	for _, key := range keys {
		ops := byKey[key]
		out = append(out, KeyVerdict{Key: key, Ops: len(ops), Result: c.CheckBounded(ops, maxOps)})
	}
	return out
}

// CASKind names a CASOp's operation.
type CASKind uint8

const (
	// Read outputs the register's value in CASOp.Val.
	Read CASKind = iota + 1
	// Write stores CASOp.Val.
	Write
	// CAS replaces CASOp.Old with CASOp.Val and outputs in CASOp.OK whether
	// it did.
	CAS
)

// CASOp is one completed operation on a string register under
// CASRegisterModel: the record the serving tier's auditor carries from a
// commit to its window's verdict. It holds strings and scalars only, so
// building, queueing and checking one allocates nothing.
type CASOp struct {
	// Proc is the invoking process.
	Proc int
	// Call and Ret are the invocation and response times.
	Call, Ret int64
	Kind      CASKind
	// OK is a CAS's output: whether the swap happened.
	OK bool
	// Val is the value a Read returned, a Write stored or a CAS installs;
	// Old is the value a CAS expects to find.
	Val, Old string
}

// Interval implements Timed.
func (op CASOp) Interval() (call, ret int64) { return op.Call, op.Ret }

// CASState is CASRegisterModel's state: the register's value, or — known
// false — "not determined by the window so far".
type CASState struct {
	val   string
	known bool
}

// CASRegisterModel is the sequential specification of a single string
// register supporting read, write and compare-and-swap (CASOp).
//
// With UnknownInit true the initial value is unconstrained: the model
// tracks an "unknown" state that any read may resolve. This is the mode an
// online auditor uses for windows cut from the middle of a live history —
// the register's value at the window boundary is not known, so the check
// is sound (it never reports a false violation) at the cost of missing
// violations that depend on the boundary value.
type CASRegisterModel struct {
	// Initial is the register's initial value (used when UnknownInit is
	// false).
	Initial string
	// UnknownInit makes the initial value unconstrained.
	UnknownInit bool
}

var _ Model[CASState, CASOp] = CASRegisterModel{}

// Init implements Model.
func (m CASRegisterModel) Init() CASState {
	if m.UnknownInit {
		return CASState{}
	}
	return CASState{val: m.Initial, known: true}
}

// Apply implements Model.
func (m CASRegisterModel) Apply(state CASState, op CASOp) (CASState, bool) {
	switch op.Kind {
	case Write:
		return CASState{val: op.Val, known: true}, true
	case Read:
		// A read of the unknown value resolves it.
		return CASState{val: op.Val, known: true}, !state.known || state.val == op.Val
	case CAS:
		// On the unknown value either outcome is legal: a successful cas
		// proves the value was op.Old and sets it to op.Val; a failed one
		// only proves it differed from op.Old, so the state stays unknown
		// (sound over-approximation).
		if op.OK {
			return CASState{val: op.Val, known: true}, !state.known || state.val == op.Old
		}
		return state, !state.known || state.val != op.Old
	default:
		return state, false
	}
}
