package spec

import (
	"fmt"
	"testing"
)

func TestCheckPartitioned(t *testing.T) {
	model := CASRegisterModel{Initial: ""}
	history := []KeyedOp[CASOp]{
		// Key a: sequential write then matching read — linearizable.
		{Key: "a", Op: CASOp{Call: 1, Ret: 2, Kind: Write, Val: "x"}},
		{Key: "a", Op: CASOp{Call: 3, Ret: 4, Kind: Read, Val: "x"}},
		// Key b: sequential write then a stale read — violation.
		{Key: "b", Op: CASOp{Call: 1, Ret: 2, Kind: Write, Val: "y"}},
		{Key: "b", Op: CASOp{Call: 3, Ret: 4, Kind: Read, Val: "stale"}},
		// Key c: a single op, fine.
		{Key: "c", Op: CASOp{Call: 1, Ret: 2, Kind: CAS, Old: "", Val: "z", OK: true}},
	}
	got := CheckPartitioned(model, history, MaxWindowOps)
	want := []KeyVerdict{
		{Key: "a", Ops: 2, Result: Linearizable},
		{Key: "b", Ops: 2, Result: Violation},
		{Key: "c", Ops: 1, Result: Linearizable},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d verdicts, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("verdict %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Oversized partitions come back Truncated, never silently skipped.
	var big []KeyedOp[CASOp]
	for i := 0; i < MaxWindowOps+1; i++ {
		big = append(big, KeyedOp[CASOp]{Key: "k", Op: CASOp{Call: int64(2*i + 1), Ret: int64(2*i + 2), Kind: Write, Val: fmt.Sprint(i)}})
	}
	out := CheckPartitioned(model, big, MaxWindowOps)
	if len(out) != 1 || out[0].Result != Truncated || out[0].Ops != MaxWindowOps+1 {
		t.Fatalf("oversized partition = %+v, want Truncated", out)
	}

	if out := CheckPartitioned(model, nil, 0); len(out) != 0 {
		t.Fatalf("empty history produced verdicts: %+v", out)
	}
}

func TestCheckBoundedVerdicts(t *testing.T) {
	good := []CASOp{
		{Proc: 0, Call: 0, Ret: 1, Kind: Write, Val: "x"},
		{Proc: 1, Call: 2, Ret: 3, Kind: Read, Val: "x"},
	}
	bad := []CASOp{
		{Proc: 0, Call: 0, Ret: 1, Kind: Write, Val: "x"},
		{Proc: 1, Call: 2, Ret: 3, Kind: Read, Val: "stale"},
	}
	m := CASRegisterModel{Initial: ""}
	if got := agreeBounded(t, m, good, 8); got != Linearizable {
		t.Errorf("good window: %v, want linearizable", got)
	}
	if got := agreeBounded(t, m, bad, 8); got != Violation {
		t.Errorf("bad window: %v, want violation", got)
	}
}

func TestCheckBoundedTruncates(t *testing.T) {
	m := CASRegisterModel{Initial: ""}
	var history []CASOp
	for i := 0; i < 10; i++ {
		history = append(history, CASOp{
			Proc: i, Call: int64(2 * i), Ret: int64(2*i + 1),
			Kind: Write, Val: fmt.Sprintf("v%d", i),
		})
	}
	if got := agreeBounded(t, m, history, 4); got != Truncated {
		t.Errorf("10 ops with cap 4: %v, want truncated", got)
	}
	if got := agreeBounded(t, m, history, 10); got != Linearizable {
		t.Errorf("10 ops with cap 10: %v, want linearizable", got)
	}

	// maxOps <= 0 and maxOps > MaxWindowOps both mean MaxWindowOps; unlike
	// Check, an oversized window must not panic.
	big := make([]CASOp, MaxWindowOps+1)
	for i := range big {
		big[i] = CASOp{Proc: 0, Call: int64(2 * i), Ret: int64(2*i + 1), Kind: Write, Val: fmt.Sprint(i)}
	}
	if got := agreeBounded(t, m, big, 0); got != Truncated {
		t.Errorf("oversized window with default cap: %v, want truncated", got)
	}
	if got := agreeBounded(t, m, big, 1<<30); got != Truncated {
		t.Errorf("oversized window with huge cap: %v, want truncated", got)
	}
	if got := agreeBounded(t, m, history, 0); got != Linearizable {
		t.Errorf("10 ops with default cap: %v, want linearizable", got)
	}
}

func TestCheckResultString(t *testing.T) {
	cases := map[CheckResult]string{
		Linearizable:   "linearizable",
		Violation:      "violation",
		Truncated:      "truncated",
		CheckResult(0): "unknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestCASRegisterModel(t *testing.T) {
	m := CASRegisterModel{Initial: "a"}

	// Successful cas chain: a -> b -> c, read sees c.
	h := []CASOp{
		{Proc: 0, Call: 0, Ret: 1, Kind: CAS, Old: "a", Val: "b", OK: true},
		{Proc: 0, Call: 2, Ret: 3, Kind: CAS, Old: "b", Val: "c", OK: true},
		{Proc: 1, Call: 4, Ret: 5, Kind: Read, Val: "c"},
	}
	if !agree(t, m, h) {
		t.Error("cas chain should be linearizable")
	}

	// Two concurrent cas(a->x) can't both succeed.
	h = []CASOp{
		{Proc: 0, Call: 0, Ret: 3, Kind: CAS, Old: "a", Val: "b", OK: true},
		{Proc: 1, Call: 1, Ret: 2, Kind: CAS, Old: "a", Val: "c", OK: true},
	}
	if agree(t, m, h) {
		t.Error("two successful cas from the same old value must not linearize")
	}

	// A failed cas against a matching value is illegal when sequential.
	h = []CASOp{
		{Proc: 0, Call: 0, Ret: 1, Kind: CAS, Old: "a", Val: "b", OK: false},
	}
	if agree(t, m, h) {
		t.Error("failed cas(a->b) on value a must not linearize")
	}

	// An op of no kind is illegal (malformed inputs no longer exist: the
	// fields are typed).
	if _, ok := m.Apply(m.Init(), CASOp{}); ok {
		t.Error("unknown kind should be illegal")
	}
}

func TestCASRegisterModelUnknownInit(t *testing.T) {
	m := CASRegisterModel{UnknownInit: true}

	// A window cut from mid-history: the first read resolves the unknown
	// value, and later ops are constrained by it.
	h := []CASOp{
		{Proc: 0, Call: 0, Ret: 1, Kind: Read, Val: "z"},
		{Proc: 0, Call: 2, Ret: 3, Kind: Read, Val: "z"},
	}
	if !agree(t, m, h) {
		t.Error("consistent reads from unknown init should linearize")
	}

	// Stale read after a write inside the window is still caught.
	h = []CASOp{
		{Proc: 0, Call: 0, Ret: 1, Kind: Read, Val: "z"},
		{Proc: 0, Call: 2, Ret: 3, Kind: Write, Val: "w"},
		{Proc: 0, Call: 4, Ret: 5, Kind: Read, Val: "z"},
	}
	if agree(t, m, h) {
		t.Error("stale read after write must not linearize even with unknown init")
	}

	// A successful cas resolves the unknown value to New; a failed cas
	// keeps it unknown (sound: never a false violation).
	h = []CASOp{
		{Proc: 0, Call: 0, Ret: 1, Kind: CAS, Old: "a", Val: "b", OK: false},
		{Proc: 0, Call: 2, Ret: 3, Kind: CAS, Old: "q", Val: "r", OK: true},
		{Proc: 0, Call: 4, Ret: 5, Kind: Read, Val: "r"},
	}
	if !agree(t, m, h) {
		t.Error("failed-then-successful cas from unknown init should linearize")
	}

	// The unknown state is its own memo key: no value, "" included, is it.
	if m.Init() == (CASRegisterModel{Initial: ""}).Init() {
		t.Error("unknown state collides with a value state")
	}
}
