package explore

import (
	"testing"
)

// --- GatedModel: Lemmas 3, 4, 5 on a (2,1)-live object (E8) ---------------

func exploreGated(t *testing.T, inputs []int) *Graph {
	t.Helper()
	g, err := Explore(GatedModel{}, inputs, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGatedModelLemma3BivalentInitialRun(t *testing.T) {
	// Lemma 3: with mixed inputs the empty run is bivalent.
	g := exploreGated(t, []int{0, 1})
	if v := g.InitialValence(); !v.Bivalent() {
		t.Fatalf("initial valence %v, want bivalent", v)
	}
}

func TestGatedModelUnanimousInputsAreUnivalent(t *testing.T) {
	// The complement of Lemma 3's argument: all-v inputs give a v-valent
	// empty run (validity forces the decision).
	for _, v := range []int{0, 1} {
		g := exploreGated(t, []int{v, v})
		val := g.InitialValence()
		if !val.Univalent() || !val.Has(v) {
			t.Errorf("inputs (%d,%d): valence %v, want %d-valent", v, v, val, v)
		}
	}
}

func TestGatedModelLemma4DeciderExists(t *testing.T) {
	// Lemma 4: the object is wait-free for p0, so the bivalence-preserving
	// discipline terminates at a state where p0 is a decider.
	g := exploreGated(t, []int{0, 1})
	idx := g.FindDecider(0, 1000)
	if idx < 0 {
		t.Fatal("bivalence-preserving discipline found no decider state")
	}
	if !g.ValenceOf(idx).Bivalent() {
		t.Errorf("decider state has valence %v, want bivalent", g.ValenceOf(idx))
	}
	if !g.IsDecider(idx, 0) {
		t.Error("exhaustive check refutes the discipline's decider state")
	}
}

func TestGatedModelLemma5CriticalPairsAccessSameNonRegisterObject(t *testing.T) {
	// Lemmas 2 and 5: at every critical configuration, the two pending
	// events address the same object, and that object is not a register.
	g := exploreGated(t, []int{0, 1})
	pairs := g.FindCriticalPairs()
	if len(pairs) == 0 {
		t.Fatal("no critical configuration found; Lemma 5 predicts one exists")
	}
	for _, c := range pairs {
		if c.AccessP.Object != c.AccessQ.Object {
			t.Errorf("critical pair at state %d: p accesses %q, q accesses %q — Lemma 2 violated",
				c.StateIdx, c.AccessP.Object, c.AccessQ.Object)
		}
		if c.AccessP.IsRegister || c.AccessQ.IsRegister {
			t.Errorf("critical pair at state %d accesses a register (%+v, %+v) — Lemma 2 violated",
				c.StateIdx, c.AccessP, c.AccessQ)
		}
	}
}

func TestGatedModelSafetyExhaustive(t *testing.T) {
	// Exhaustive agreement and validity over the full reachable graph, for
	// every input assignment.
	for _, inputs := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		g := exploreGated(t, inputs)
		if viol, bad := g.CheckAgreement(); bad {
			t.Errorf("inputs %v: agreement violation %+v", inputs, viol)
		}
		if !g.CheckValidity(inputs) {
			t.Errorf("inputs %v: validity violation", inputs)
		}
	}
}

func TestGatedModelGuestSoloDecides(t *testing.T) {
	// Obstruction-free termination of the guest, model-checked: from the
	// initial state, the guest running alone decides within a few steps.
	g := exploreGated(t, []int{0, 1})
	if !g.SoloDecides(g.Initial(), 1, 10) {
		t.Error("guest running solo from the empty run does not decide")
	}
}

func TestGatedModelWaitFreePortDecidesFromEverywhere(t *testing.T) {
	// Wait-freedom of p0, model-checked: from every reachable state, p0
	// running alone decides within its two remaining steps.
	g := exploreGated(t, []int{0, 1})
	for i := 0; i < g.Size(); i++ {
		if !g.SoloDecides(i, 0, 5) {
			t.Fatalf("p0 cannot decide solo from state %d (key %q)", i, g.StateOf(i).AppendKey(nil))
		}
	}
}

// --- OFModel: Lemma 3 and the Theorem 4 livelock pump (E8) ----------------

func exploreOF(t *testing.T, inputs []int, rounds, limit int) *Graph {
	t.Helper()
	g, err := Explore(OFModel{Rounds: rounds}, inputs, limit)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOFModelLemma3BivalentInitialRun(t *testing.T) {
	g := exploreOF(t, []int{0, 1}, 2, 2000000)
	if v := g.InitialValence(); !v.Bivalent() {
		t.Fatalf("initial valence %v, want bivalent", v)
	}
}

func TestOFModelUnanimousCommitsImmediately(t *testing.T) {
	// Convergence: with unanimous inputs every reachable decision is that
	// input, exhaustively.
	for _, v := range []int{0, 1} {
		g := exploreOF(t, []int{v, v}, 2, 2000000)
		val := g.InitialValence()
		if !val.Univalent() || !val.Has(v) {
			t.Errorf("inputs (%d,%d): valence %v, want %d-valent", v, v, val, v)
		}
	}
}

func TestOFModelSafetyExhaustive(t *testing.T) {
	for _, inputs := range [][]int{{0, 1}, {1, 0}} {
		g := exploreOF(t, inputs, 2, 2000000)
		if viol, bad := g.CheckAgreement(); bad {
			t.Errorf("inputs %v: agreement violation %+v", inputs, viol)
		}
		if !g.CheckValidity(inputs) {
			t.Errorf("inputs %v: validity violation", inputs)
		}
	}
}

func TestOFModelSoloDecidesFromEveryState(t *testing.T) {
	// Obstruction-freedom, model-checked exhaustively: from every reachable
	// state of the 2-round model in which a process has not yet hit the
	// round cap, that process running alone either decides or advances to
	// the cap. Restrict to states where the process is still within round 0
	// so the 2-round cap cannot interfere: solo from there always decides.
	g := exploreOF(t, []int{0, 1}, 2, 2000000)
	checked := 0
	for i := 0; i < g.Size(); i++ {
		st := g.StateOf(i).(ofState)
		if st.procs[0].round > 0 || st.procs[0].pc == ofCapped {
			continue
		}
		checked++
		// Within 2 rounds of solo running (≤ 2*8+2 events) p0 must decide.
		if !g.SoloDecides(i, 0, 20) {
			t.Fatalf("p0 cannot decide solo from state %d", i)
		}
	}
	if checked == 0 {
		t.Fatal("no states checked")
	}
}

func TestOFModelLivelockPumpExists(t *testing.T) {
	// The executable content of Theorem 4's premise: from the initial
	// configuration with distinct estimates, the adversary can reach the
	// round-1 boundary with the estimates still distinct and nothing
	// decided. Repeating that segment forever is a fault-free run in which
	// both processes take infinitely many steps and no process ever decides
	// — so this object satisfies neither wait-freedom for any process nor
	// fault-freedom.
	g := exploreOF(t, []int{0, 1}, 2, 2000000)
	idx := g.FindReachable(g.Initial(), func(s State) bool {
		return AtRoundBoundary(s, 1)
	})
	if idx < 0 {
		t.Fatal("no livelock pump found; the hand-built LivelockSchedule shows one exists")
	}
}

// --- TASModel: Common2 boundary (E9) --------------------------------------

func TestTASModelTwoProcessConsensusIsCorrect(t *testing.T) {
	// Test&Set solves 2-process consensus: exhaustive agreement + validity +
	// termination over every input assignment.
	for _, inputs := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		g, err := Explore(TASModel{Procs: 2}, inputs, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if viol, bad := g.CheckAgreement(); bad {
			t.Errorf("inputs %v: agreement violation %+v", inputs, viol)
		}
		if !g.CheckValidity(inputs) {
			t.Errorf("inputs %v: validity violation", inputs)
		}
		// Wait-free termination: solo runs decide from every state.
		for i := 0; i < g.Size(); i++ {
			for pid := 0; pid < 2; pid++ {
				if !g.SoloDecides(i, pid, 10) {
					t.Fatalf("inputs %v: process %d stuck at state %d", inputs, pid, i)
				}
			}
		}
	}
}

func TestTASModelThreeProcessConsensusViolatesAgreement(t *testing.T) {
	// The same protocol for three processes admits an agreement violation —
	// the operational face of Test&Set's consensus number being exactly 2
	// (Section 3.5: Common2 objects cannot replace the (n−1, n−1)-live
	// objects of Theorem 1's hypothesis for n−1 > 2).
	g, err := Explore(TASModel{Procs: 3}, []int{0, 1, 1}, 2000000)
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := g.CheckAgreement(); !bad {
		t.Fatal("no agreement violation found for the 3-process T&S protocol; " +
			"consensus number 2 predicts one")
	}
}

// --- Explorer internals ----------------------------------------------------

func TestValenceHelpers(t *testing.T) {
	var v Valence
	if !v.None() || v.Bivalent() || v.Univalent() {
		t.Error("zero valence misclassified")
	}
	v = 1 << 0
	if !v.Univalent() || !v.Has(0) || v.Has(1) || v.String() != "0-valent" {
		t.Errorf("0-valent misclassified: %v", v)
	}
	v |= 1 << 1
	if !v.Bivalent() || v.String() != "bivalent" {
		t.Errorf("bivalent misclassified: %v", v)
	}
	if !v.Compatible(v) || v.Compatible(1<<0) {
		t.Error("compatibility misbehaves")
	}
	if (Valence(0)).String() != "undecided" {
		t.Error("undecided string")
	}
}

func TestExploreRespectsLimit(t *testing.T) {
	if _, err := Explore(OFModel{Rounds: 2}, []int{0, 1}, 10); err != ErrLimit {
		t.Errorf("err = %v, want ErrLimit", err)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := exploreGated(t, []int{0, 1})
	if g.Size() <= 1 {
		t.Fatalf("graph size %d, want > 1", g.Size())
	}
	init := g.Initial()
	if s := g.Succ(init, 0); s < 0 {
		t.Error("p0 not enabled at the initial state")
	}
	if len(g.StateOf(init).AppendKey(nil)) == 0 {
		t.Error("empty state key")
	}
}
