package spec

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

// checkRef is Check with the memo keyed the way it was before the struct
// key — one formatted "done|state" string per search node. It stays as the
// reference the verdicts of Check are compared against.
func checkRef(model Model, history []Op) bool {
	n := len(history)
	ops := append([]Op(nil), history...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Call < ops[j].Call })
	memo := make(map[string]bool)
	var search func(done uint64, state any) bool
	search = func(done uint64, state any) bool {
		if done == (uint64(1)<<uint(n))-1 {
			return true
		}
		key := fmt.Sprintf("%d|%s", done, model.Key(state))
		if v, ok := memo[key]; ok {
			return v
		}
		minRet := int64(1<<62 - 1)
		for i := 0; i < n; i++ {
			if done&(1<<uint(i)) == 0 && ops[i].Ret < minRet {
				minRet = ops[i].Ret
			}
		}
		ok := false
		for i := 0; i < n && !ok; i++ {
			if done&(1<<uint(i)) != 0 || ops[i].Call > minRet {
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
func agree(t *testing.T, model Model, history []Op) bool {
	t.Helper()
	got := Check(model, history)
	if len(history) > 0 && got != checkRef(model, history) {
		t.Errorf("Check = %v, reference = %v on %+v", got, !got, history)
	}
	return got
}

// agreeBounded is agree for CheckBounded: a window that was searched must
// carry the reference's verdict.
func agreeBounded(t *testing.T, model Model, history []Op, maxOps int) CheckResult {
	t.Helper()
	got := CheckBounded(model, history, maxOps)
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
func randomWindow(rng *rand.Rand) []Op {
	vals := windowVals
	pick := func() string { return vals[rng.IntN(len(vals))] }
	cur := ""
	ops := make([]Op, 1+rng.IntN(16))
	for i := range ops {
		at := int64(i) * 10
		op := Op{Proc: rng.IntN(4), Call: at - rng.Int64N(30), Ret: at + 1 + rng.Int64N(30)}
		switch rng.IntN(3) {
		case 0:
			op.Method, op.Out = "read", cur
		case 1:
			op.Method, op.In = "write", pick()
			cur = op.In.(string)
		default:
			in := CASInput{Old: pick(), New: pick()}
			op.Method, op.In, op.Out = "cas", in, in.Old == cur
			if in.Old == cur {
				cur = in.New.(string)
			}
		}
		ops[i] = op
	}
	if rng.IntN(2) == 0 {
		switch op := &ops[rng.IntN(len(ops))]; op.Method {
		case "read":
			op.Out = pick()
		case "cas":
			op.Out = !op.Out.(bool)
		}
	}
	return ops
}

// TestCheckVerdictsMatchReference: the struct-keyed memo decides every
// window as the formatted-string memo did, known and unknown initial value
// alike, and the sample holds both verdicts.
func TestCheckVerdictsMatchReference(t *testing.T) {
	for _, state := range []any{7, nil, true, "", windowVals[5], windowVals[7]} {
		if got, want := (CASRegisterModel{}).Key(state), fmt.Sprint(state); got != want {
			t.Errorf("Key(%#v) = %q, was %q", state, got, want)
		}
	}
	rng := rand.New(rand.NewPCG(16, 1))
	verdicts := map[CheckResult]int{}
	for i := 0; i < 1000; i++ {
		w := randomWindow(rng)
		verdicts[agreeBounded(t, CASRegisterModel{Initial: ""}, w, 16)]++
		verdicts[agreeBounded(t, CASRegisterModel{UnknownInit: true}, w, 16)]++
		agree(t, RegisterModel{Initial: ""}, w) // cas is illegal here: all-violation but for cas-free windows
	}
	if verdicts[Linearizable] < 100 || verdicts[Violation] < 100 || verdicts[Truncated] != 0 {
		t.Errorf("sample is one-sided: %v", verdicts)
	}
}
