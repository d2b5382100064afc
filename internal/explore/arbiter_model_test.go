package explore

import (
	"fmt"
	"testing"
)

func exploreArbiter(t *testing.T, roles []int) *Graph {
	t.Helper()
	g, err := Explore(ArbiterModel{Roles: roles}, make([]int, len(roles)), 2000000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// roleConfigs are the exhaustively model-checked arbiter shapes of E1.
var roleConfigs = [][]int{
	{ArbOwner, ArbGuest},
	{ArbOwner, ArbOwner, ArbGuest},
	{ArbOwner, ArbGuest, ArbGuest},
	{ArbOwner, ArbOwner, ArbGuest, ArbGuest},
	{ArbGuest, ArbGuest},
	{ArbOwner, ArbOwner},
}

func TestArbiterModelAgreementExhaustive(t *testing.T) {
	// Agreement over every interleaving and participation prefix: since a
	// crash is indistinguishable from never scheduling a process again, the
	// reachable states cover all crash patterns.
	for _, roles := range roleConfigs {
		t.Run(fmt.Sprint(roles), func(t *testing.T) {
			g := exploreArbiter(t, roles)
			if viol, bad := g.CheckAgreement(); bad {
				t.Errorf("agreement violation at state %d: p%d=%d p%d=%d",
					viol.StateIdx, viol.P, viol.VP, viol.Q, viol.VQ)
			}
		})
	}
}

func TestArbiterModelValidityExhaustive(t *testing.T) {
	// Validity: Owner (resp. Guest) cannot be returned when no owner (resp.
	// guest) participates. Since roles are fixed per configuration, this is
	// a reachability check over decided values.
	for _, roles := range roleConfigs {
		hasOwner, hasGuest := false, false
		for _, r := range roles {
			if r == ArbOwner {
				hasOwner = true
			} else {
				hasGuest = true
			}
		}
		g := exploreArbiter(t, roles)
		val := g.InitialValence()
		if !hasOwner && val.Has(ArbOwner) {
			t.Errorf("roles %v: owner side can win with no owners", roles)
		}
		if !hasGuest && val.Has(ArbGuest) {
			t.Errorf("roles %v: guest side can win with no guests", roles)
		}
		if val.None() {
			t.Errorf("roles %v: no decision reachable at all", roles)
		}
	}
}

func TestArbiterModelTerminationWithCorrectOwnerExhaustive(t *testing.T) {
	// Termination clause 1, model-checked: from EVERY reachable state, an
	// owner running solo returns (owners never wait), and after any owner
	// has returned, a guest running solo returns too.
	g := exploreArbiter(t, []int{ArbOwner, ArbGuest})
	for i := 0; i < g.Size(); i++ {
		if !g.SoloDecides(i, 0, 10) {
			t.Fatalf("owner cannot return solo from state %d (key %q)", i, g.StateOf(i).AppendKey(nil))
		}
	}
	// Clause 3: once someone returned, every correct process terminates.
	for i := 0; i < g.Size(); i++ {
		if !Returned(g.StateOf(i)) {
			continue
		}
		for pid := 0; pid < 2; pid++ {
			if !g.SoloDecides(i, pid, 10) {
				t.Fatalf("process %d cannot return solo from post-return state %d", pid, i)
			}
		}
	}
}

func TestArbiterModelOnlyGuestsTerminate(t *testing.T) {
	// Termination clause 2: when only guests invoke, every guest running
	// solo from any reachable state returns.
	g := exploreArbiter(t, []int{ArbGuest, ArbGuest})
	for i := 0; i < g.Size(); i++ {
		for pid := 0; pid < 2; pid++ {
			if !g.SoloDecides(i, pid, 10) {
				t.Fatalf("guest %d cannot return solo from state %d (key %q)",
					pid, i, g.StateOf(i).AppendKey(nil))
			}
		}
	}
	// And the guests must win.
	if v := g.InitialValence(); !v.Univalent() || !v.Has(ArbGuest) {
		t.Errorf("guest-only arbitration valence %v, want guest-valent", v)
	}
}

func TestArbiterModelGuestBlocksAfterOwnerAnnouncesAndStops(t *testing.T) {
	// The conditional nature of the termination guarantee, model-checked:
	// there is a reachable state (owner announced, then stopped) from which
	// the guest running solo does NOT return. This is the state that makes
	// task T2 of Figure 5 necessary.
	g := exploreArbiter(t, []int{ArbOwner, ArbGuest})
	blocked := false
	for i := 0; i < g.Size(); i++ {
		st := g.StateOf(i).(arbState)
		if st.partOwner && st.winner == -1 && st.procs[1].pc == arbPollWinner {
			if !g.SoloDecides(i, 1, 50) {
				blocked = true
			}
		}
	}
	if !blocked {
		t.Error("no reachable state blocks a solo guest; the arbiter's guarantee would be unconditional")
	}
}

func TestArbiterModelCriticalPairsOnXCONS(t *testing.T) {
	// With two owners and one guest, the arbitration's outcome can hinge on
	// the owners' consensus object: every critical configuration (if any)
	// must sit on XCONS, the only non-register — the Lemma 2 discipline
	// holds for the arbiter too.
	g := exploreArbiter(t, []int{ArbOwner, ArbOwner, ArbGuest})
	for _, c := range g.FindCriticalPairs() {
		if c.AccessP.Object != c.AccessQ.Object || c.AccessP.IsRegister {
			t.Errorf("critical pair on %+v / %+v, want same non-register object",
				c.AccessP, c.AccessQ)
		}
	}
}

func TestArbiterModelStateCounts(t *testing.T) {
	// Pin the model sizes so accidental state-space blowups are caught.
	for _, tc := range []struct {
		roles []int
		max   int
	}{
		{[]int{ArbOwner, ArbGuest}, 200},
		{[]int{ArbOwner, ArbOwner, ArbGuest}, 3000},
		{[]int{ArbOwner, ArbOwner, ArbGuest, ArbGuest}, 60000},
	} {
		g := exploreArbiter(t, tc.roles)
		if g.Size() > tc.max {
			t.Errorf("roles %v: %d states, expected <= %d", tc.roles, g.Size(), tc.max)
		}
	}
}
