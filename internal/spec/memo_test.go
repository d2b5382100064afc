package spec

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

// checkRef is the search as it was before Checker: its own copy of the
// loop, a fresh memo per call, keyed by one formatted "done|state" string
// per search node (%#v quotes strings, so the key is injective on the
// states of this package's models). It stays as the reference the verdicts
// of Check are compared against, and is the only other copy of the search.
func checkRef[S comparable, O Timed](model Model[S, O], history []O) bool {
	n := len(history)
	ops := append([]O(nil), history...)
	call := func(i int) int64 { c, _ := ops[i].Interval(); return c }
	ret := func(i int) int64 { _, r := ops[i].Interval(); return r }
	sort.Slice(ops, func(i, j int) bool { return call(i) < call(j) })
	memo := make(map[string]bool)
	var search func(done uint64, state S) bool
	search = func(done uint64, state S) bool {
		if done == (uint64(1)<<uint(n))-1 {
			return true
		}
		key := fmt.Sprintf("%d|%#v", done, state)
		if v, ok := memo[key]; ok {
			return v
		}
		minRet := int64(1<<62 - 1)
		for i := 0; i < n; i++ {
			if done&(1<<uint(i)) == 0 && ret(i) < minRet {
				minRet = ret(i)
			}
		}
		ok := false
		for i := 0; i < n && !ok; i++ {
			if done&(1<<uint(i)) != 0 || call(i) > minRet {
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

// agree is Check for the corpora of this package's tests: it also runs the
// reference and fails the test where the two verdicts differ.
func agree[S comparable, O Timed](t *testing.T, model Model[S, O], history []O) bool {
	t.Helper()
	got := Check(model, history)
	if len(history) > 0 && got != checkRef(model, history) {
		t.Errorf("Check = %v, reference = %v on %+v", got, !got, history)
	}
	return got
}

// agreeBounded is agree for CheckBounded: a window that was searched must
// carry the reference's verdict.
func agreeBounded[S comparable, O Timed](t *testing.T, model Model[S, O], history []O, maxOps int) CheckResult {
	t.Helper()
	got := NewChecker(model).CheckBounded(history, maxOps)
	if got != Truncated && (got == Linearizable) != checkRef(model, history) {
		t.Errorf("CheckBounded = %v, reference disagrees on %+v", got, history)
	}
	return got
}

var windowVals = []string{"", "a", "b", "|", "1|", "1|a", "a|b", "3|1|a"}

// randomWindow builds a window of up to 16 overlapping ops on one register:
// the ops take effect in index order (so the window is linearizable as
// built), each interval reaches a random distance either side of its op's
// instant, and half the windows then have one output corrupted. Values come
// from a small alphabet whose members contain '|' and digits — the
// separator and the leading field of the formatted memo key — so a key that
// confused "done" with "state" would merge distinct search nodes.
func randomWindow(rng *rand.Rand) []CASOp {
	vals := windowVals
	pick := func() string { return vals[rng.IntN(len(vals))] }
	cur := ""
	ops := make([]CASOp, 1+rng.IntN(16))
	for i := range ops {
		at := int64(i) * 10
		op := CASOp{Proc: rng.IntN(4), Call: at - rng.Int64N(30), Ret: at + 1 + rng.Int64N(30)}
		switch rng.IntN(3) {
		case 0:
			op.Kind, op.Val = Read, cur
		case 1:
			op.Kind, op.Val = Write, pick()
			cur = op.Val
		default:
			op.Kind, op.Old = CAS, pick()
			op.Val = pick()
			if op.OK = op.Old == cur; op.OK {
				cur = op.Val
			}
		}
		ops[i] = op
	}
	if rng.IntN(2) == 0 {
		switch op := &ops[rng.IntN(len(ops))]; op.Kind {
		case Read:
			op.Val = pick()
		case CAS:
			op.OK = !op.OK
		}
	}
	return ops
}

// TestCheckVerdictsMatchReference: the typed search with its state-keyed
// memo decides every window as the formatted-string memo does, known and
// unknown initial value alike, and the sample holds both verdicts.
func TestCheckVerdictsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	verdicts := map[CheckResult]int{}
	for i := 0; i < 1000; i++ {
		w := randomWindow(rng)
		verdicts[agreeBounded(t, CASRegisterModel{Initial: ""}, w, 16)]++
		verdicts[agreeBounded(t, CASRegisterModel{UnknownInit: true}, w, 16)]++
	}
	if verdicts[Linearizable] < 100 || verdicts[Violation] < 100 || verdicts[Truncated] != 0 {
		t.Errorf("sample is one-sided: %v", verdicts)
	}
}

// TestCheckerReuseMatchesFresh: one Checker carried across the same 1,000
// windows — its sorted-ops buffer and memo table reused, as the auditor
// reuses them — decides each as a fresh search does.
func TestCheckerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	c := NewChecker(CASRegisterModel{UnknownInit: true})
	for i := 0; i < 1000; i++ {
		w := randomWindow(rng)
		if got, want := c.Check(w), checkRef(CASRegisterModel{UnknownInit: true}, w); got != want {
			t.Fatalf("window %d: reused checker = %v, reference = %v on %+v", i, got, want, w)
		}
	}
}

// TestCheckWindowZeroAllocs: a reused checker on a full 16-op window — the
// auditor's steady state — allocates nothing after its first call, for a
// linearizable window and for a violation.
func TestCheckWindowZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	var windows [][]CASOp
	for len(windows) < 8 {
		if w := randomWindow(rng); len(w) == 16 {
			windows = append(windows, w)
		}
	}
	c := NewChecker(CASRegisterModel{UnknownInit: true})
	verdicts := map[CheckResult]int{}
	for _, w := range windows {
		verdicts[c.CheckBounded(w, MaxWindowOps)]++
	}
	if verdicts[Linearizable] == 0 || verdicts[Violation] == 0 {
		t.Fatalf("windows are one-sided: %v", verdicts)
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, w := range windows {
			c.CheckBounded(w, MaxWindowOps)
		}
	}); got != 0 {
		t.Errorf("reused checker allocates %.1f objects per %d windows, want 0", got, len(windows))
	}
}
