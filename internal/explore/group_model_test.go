package explore

import "testing"

func exploreGroup(t *testing.T, inputs []int) *Graph {
	t.Helper()
	g, err := Explore(GroupModel{}, inputs, 2000000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGroupModelSafetyExhaustive(t *testing.T) {
	// Lemma 11 (agreement) and validity for every input assignment, over
	// every interleaving and participation prefix (prefixes subsume all
	// crash patterns for safety).
	for _, inputs := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		g := exploreGroup(t, inputs)
		if viol, bad := g.CheckAgreement(); bad {
			t.Errorf("inputs %v: agreement violation %+v", inputs, viol)
		}
		if !g.CheckValidity(inputs) {
			t.Errorf("inputs %v: validity violation", inputs)
		}
	}
}

func TestGroupModelMixedInputsBivalent(t *testing.T) {
	// Either group's value can win depending on the schedule: the initial
	// state is bivalent (the algorithm is fair, Section 6.2 remark).
	g := exploreGroup(t, []int{0, 1})
	if v := g.InitialValence(); !v.Bivalent() {
		t.Errorf("initial valence %v, want bivalent", v)
	}
}

func TestGroupModelGroup0SoloDecides(t *testing.T) {
	// Asymmetric termination, first half: group 0's process alone decides
	// from every reachable state (it is the first group whenever it
	// participates, and it never waits).
	g := exploreGroup(t, []int{0, 1})
	for i := 0; i < g.Size(); i++ {
		if !g.SoloDecides(i, 0, 30) {
			t.Fatalf("p0 cannot decide solo from state %d (key %q)", i, g.StateOf(i).AppendKey(nil))
		}
	}
}

func TestGroupModelGuestSoloDecidesFromEmptyRun(t *testing.T) {
	// Asymmetric termination, second half: if group 0 never participates,
	// group 1's process decides alone (it is then the first participating
	// group). From the initial state, a pure-p1 run must decide.
	g := exploreGroup(t, []int{0, 1})
	if !g.SoloDecides(g.Initial(), 1, 30) {
		t.Error("p1 running alone from the empty run does not decide")
	}
}

func TestGroupModelTaskT2RescueExhaustive(t *testing.T) {
	// The guarantee's edge, model-checked exhaustively: in every reachable
	// state where the owner has gone silent right after announcing
	// (PART[owner] set, WINNER unset), the guest running solo either still
	// returns — possible only via the task-T2 poll when ARB_VAL[1] is
	// already installed by a completed cascade — or is genuinely blocked,
	// which the paper's conditional guarantee permits. Both behaviours must
	// occur somewhere in the graph: the rescue shows T2 works; the block
	// shows the progress condition is tight.
	g := exploreGroup(t, []int{0, 1})
	rescued, blocked := false, false
	for i := 0; i < g.Size(); i++ {
		if !OwnerSilentAfterAnnounce(g.StateOf(i)) {
			continue
		}
		if g.SoloDecides(i, 1, 50) {
			rescued = true
		} else {
			blocked = true
		}
	}
	if !blocked {
		t.Error("no blocked-guest state: the progress condition would be unconditional")
	}
	if !rescued {
		t.Error("no T2-rescued state: task T2 never fires in the model")
	}
}

func TestGroupModelRegisterCriticalPairsWitnessNonOF(t *testing.T) {
	// A sharp consistency check with Theorem 1. Lemma 2 proves that an
	// OBSTRUCTION-FREE consensus object cannot have a critical configuration
	// on an atomic register. The Figure 5 object *does* have register
	// critical pairs (on the PART announcement register) — which is
	// consistent only because the object is not obstruction-free: at every
	// such configuration, the process whose solo power Lemma 1 would invoke
	// is exactly the guest that can block forever. Were the object
	// obstruction-free for everyone, it would be an (n, 1)-live consensus
	// object built from x-consensus and registers, contradicting Theorem 1.
	g := exploreGroup(t, []int{0, 1})
	pairs := g.FindCriticalPairs()
	registerPair := false
	for _, c := range pairs {
		if c.AccessP.Object != c.AccessQ.Object {
			t.Errorf("critical pair on different objects %+v / %+v", c.AccessP, c.AccessQ)
			continue
		}
		if !c.AccessP.IsRegister {
			continue
		}
		registerPair = true
		// Lemma 2's escape hatch: at this state, some process must fail
		// solo termination (otherwise Lemma 1's argument would apply and
		// rule the configuration out).
		solo0 := g.SoloDecides(c.StateIdx, 0, 60)
		solo1 := g.SoloDecides(c.StateIdx, 1, 60)
		if solo0 && solo1 {
			t.Errorf("register critical pair at state %d with both processes solo-live "+
				"— contradicts Lemma 2", c.StateIdx)
		}
	}
	if !registerPair {
		t.Error("no register critical pair found; expected one on PART " +
			"(the group object's non-OF witness)")
	}
}

func TestGroupModelStateCount(t *testing.T) {
	g := exploreGroup(t, []int{0, 1})
	if g.Size() > 1000 {
		t.Errorf("group model has %d states, expected a small graph", g.Size())
	}
	if g.Size() < 20 {
		t.Errorf("group model has only %d states; the model looks degenerate", g.Size())
	}
}
