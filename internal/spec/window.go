// Service-scale checking support: the Wing–Gong search in Check is
// exponential in the history size, so histories harvested from live traffic
// (internal/service's online auditor) must be cut down before they reach
// the search. Two tools make that safe and explicit:
//
//   - PartitionByKey splits a multi-key history into independent per-key
//     sub-histories. For objects whose keys are independent registers (a
//     key-value store), the whole history is linearizable iff every per-key
//     projection is, so partitioning loses nothing and turns one giant
//     search into many small ones.
//
//   - CheckBounded refuses oversized windows with an explicit Truncated
//     result instead of silently attempting (or worse, silently skipping)
//     an unbounded search. Callers count truncated windows and surface
//     them; a truncated window is "not audited", never "passed".
package spec

import (
	"fmt"
	"sort"
)

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

// CheckBounded checks history against model if it fits within maxOps
// operations, returning Truncated otherwise. maxOps <= 0 or maxOps >
// MaxWindowOps means MaxWindowOps. Unlike Check, it never panics on
// oversized histories.
func CheckBounded(model Model, history []Op, maxOps int) CheckResult {
	if maxOps <= 0 || maxOps > MaxWindowOps {
		maxOps = MaxWindowOps
	}
	if len(history) > maxOps {
		return Truncated
	}
	if Check(model, history) {
		return Linearizable
	}
	return Violation
}

// PartitionByKey splits history into per-key sub-histories using keyOf,
// preserving the real-time intervals of every operation. Each sub-history
// is sorted by Call time. For a store whose per-key objects are
// independent, checking every partition separately is equivalent to
// checking the whole history at once.
func PartitionByKey(history []Op, keyOf func(Op) string) map[string][]Op {
	out := make(map[string][]Op)
	for _, op := range history {
		k := keyOf(op)
		out[k] = append(out[k], op)
	}
	for _, ops := range out {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Call < ops[j].Call })
	}
	return out
}

// KeyedOp couples one operation with the key it addressed, the input shape
// of CheckPartitioned (spec.Op itself is key-agnostic; the store knows the
// routing).
type KeyedOp struct {
	Key string
	Op  Op
}

// KeyVerdict is the outcome of checking one key's projection of a keyed
// history.
type KeyVerdict struct {
	Key    string
	Ops    int
	Result CheckResult
}

// CheckPartitioned checks every per-key projection of a keyed history
// against the model minted by modelOf, each bounded by maxOps (with
// CheckBounded's semantics). For a store whose per-key objects are
// independent, the whole history is linearizable iff every verdict is
// Linearizable, and a Truncated verdict means that key's slice of the
// history went unchecked. Verdicts are sorted by key, so the output is
// deterministic regardless of input order.
func CheckPartitioned(modelOf func(key string) Model, history []KeyedOp, maxOps int) []KeyVerdict {
	byKey := make(map[string][]Op)
	for _, ko := range history {
		byKey[ko.Key] = append(byKey[ko.Key], ko.Op)
	}
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]KeyVerdict, 0, len(keys))
	for _, key := range keys {
		ops := byKey[key]
		out = append(out, KeyVerdict{
			Key:    key,
			Ops:    len(ops),
			Result: CheckBounded(modelOf(key), ops, maxOps),
		})
	}
	return out
}

// CASInput is the input of a "cas" operation under CASRegisterModel.
type CASInput struct {
	// Old is the expected current value; New replaces it on a match.
	Old, New any
}

// casUnknown is the internal sentinel for "value not determined by the
// window so far" under CASRegisterModel with UnknownInit.
type casUnknown struct{}

// CASRegisterModel is the sequential specification of a single register
// supporting read, write and compare-and-swap. Methods:
//
//	"read"  — Out is the value read
//	"write" — In is the value written
//	"cas"   — In is a CASInput, Out is the success bool
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
	Initial any
	// UnknownInit makes the initial value unconstrained.
	UnknownInit bool
}

var _ Model = CASRegisterModel{}

// Init implements Model.
func (m CASRegisterModel) Init() any {
	if m.UnknownInit {
		return casUnknown{}
	}
	return m.Initial
}

// Apply implements Model.
func (m CASRegisterModel) Apply(state any, op Op) (any, bool) {
	_, unknown := state.(casUnknown)
	switch op.Method {
	case "write":
		return op.In, true
	case "read":
		if unknown {
			// The read resolves the unknown value.
			return op.Out, true
		}
		return state, state == op.Out
	case "cas":
		in, ok := op.In.(CASInput)
		if !ok {
			return state, false
		}
		succeeded, ok := op.Out.(bool)
		if !ok {
			return state, false
		}
		if unknown {
			if succeeded {
				// A successful cas proves the value was in.Old and sets it
				// to in.New.
				return in.New, true
			}
			// A failed cas only proves the value differed from in.Old;
			// the state stays unknown (sound over-approximation).
			return state, true
		}
		if state == in.Old {
			if !succeeded {
				return state, false
			}
			return in.New, true
		}
		if succeeded {
			return state, false
		}
		return state, true
	default:
		return state, false
	}
}

// Key implements Model.
func (m CASRegisterModel) Key(state any) string {
	if _, unknown := state.(casUnknown); unknown {
		return "\x00unknown"
	}
	if s, ok := state.(string); ok {
		return s // what fmt.Sprint returns for a string, without the allocations
	}
	return fmt.Sprint(state)
}
