package explore

// GroupModel is the explicit-state model of the full Figure 5 algorithm for
// the smallest non-trivial configuration: two processes, two singleton
// groups (x = 1, m = 2). Process 0 is group 0 (the important group),
// process 1 is group 1 (the last group).
//
// Process 0 executes: GXCONS[0] (non-register), write VAL[0], then
// ARBITER[0] as owner (write PART[owner], read PART[guest], XCONS
// (non-register), write WINNER), then write ARB_VAL[0] from VAL[0] or from
// ARB_VAL[1], then read ARB_VAL[0] and return.
//
// Process 1 executes: GXCONS[1], write VAL[1], write ARB_VAL[1], then
// ARBITER[0] as guest (write PART[guest], read PART[owner]; if an owner is
// visible, alternate polling WINNER and — task T2 — ARB_VAL[0]), then write
// ARB_VAL[0] accordingly, read ARB_VAL[0] and return.
//
// The model makes Figure 5 exhaustively checkable: agreement and validity
// over every interleaving and participation prefix (prefixes subsume
// crashes), the asymmetric termination property via solo-run checks, and
// the task-T2 rescue (a guest blocked on a silent owner still returns once
// ARB_VAL[1] has been installed by the owner's completed cascade).
type GroupModel struct{}

var _ Protocol = GroupModel{}

// Process-0 (owner) program counters.
const (
	gm0GX = iota
	gm0WriteVal
	gm0PartOwner
	gm0ReadPartGuest
	gm0XCons
	gm0WriteWinner
	gm0ReadForArbVal // read VAL[0] or ARB_VAL[1] depending on winner
	gm0WriteArbVal0
	gm0ReadReturn
	gm0Done
)

// Process-1 (guest) program counters.
const (
	gm1GX = iota
	gm1WriteVal
	gm1WriteArbVal1
	gm1PartGuest
	gm1ReadPartOwner
	gm1PollWinner
	gm1PollT2
	gm1WriteWinnerGuest
	gm1ReadForArbVal // read ARB_VAL[1] or VAL[0] depending on winner
	gm1WriteArbVal0
	gm1ReadReturn
	gm1Done
)

type groupState struct {
	inputs [2]int

	gx0, gx1         int8 // GXCONS decisions: -1 undecided
	val0, val1       int8 // VAL registers: -1 unset
	arbVal0, arbVal1 int8 // ARB_VAL registers: -1 unset

	partOwner, partGuest bool
	winner               int8 // -1 unset, 0 owner, 1 guest
	xcons                int8 // -1 undecided, 0 owners win, 1 guests win

	pc0, pc1 int8
	// Per-process scratch: the value read for the ARB_VAL[0] write, the
	// winner each observed, and the decided value.
	carry0, carry1 int8
	won0, won1     int8
	dec0, dec1     int8
}

// AppendKey implements State. Every field fits one byte (-1 values shifted
// up by one).
func (s groupState) AppendKey(dst []byte) []byte {
	return append(dst,
		byte(s.inputs[0]), byte(s.inputs[1]),
		byte(s.gx0+1), byte(s.gx1+1), byte(s.val0+1), byte(s.val1+1),
		byte(s.arbVal0+1), byte(s.arbVal1+1),
		boolByte(s.partOwner), boolByte(s.partGuest),
		byte(s.winner+1), byte(s.xcons+1),
		byte(s.pc0), byte(s.pc1),
		byte(s.carry0+1), byte(s.carry1+1),
		byte(s.won0+1), byte(s.won1+1),
		byte(s.dec0+1), byte(s.dec1+1))
}

// N implements Protocol.
func (GroupModel) N() int { return 2 }

// Initial implements Protocol.
func (GroupModel) Initial(inputs []int) State {
	return groupState{
		inputs: [2]int{inputs[0], inputs[1]},
		gx0:    -1, gx1: -1, val0: -1, val1: -1, arbVal0: -1, arbVal1: -1,
		winner: -1, xcons: -1,
		carry0: -1, carry1: -1, won0: -1, won1: -1, dec0: -1, dec1: -1,
	}
}

// Enabled implements Protocol.
func (GroupModel) Enabled(s State, pid int) bool {
	st := s.(groupState)
	if pid == 0 {
		return st.pc0 != gm0Done
	}
	return st.pc1 != gm1Done
}

// Next implements Protocol.
func (GroupModel) Next(s State, pid int) State {
	st := s.(groupState)
	if pid == 0 {
		st = stepOwner(st)
	} else {
		st = stepGuest(st)
	}
	return st
}

func stepOwner(st groupState) groupState {
	switch st.pc0 {
	case gm0GX:
		// Singleton group: the wait-free consensus decides p0's input.
		if st.gx0 == -1 {
			st.gx0 = int8(st.inputs[0])
		}
		st.pc0 = gm0WriteVal
	case gm0WriteVal:
		st.val0 = st.gx0
		st.pc0 = gm0PartOwner
	case gm0PartOwner:
		st.partOwner = true
		st.pc0 = gm0ReadPartGuest
	case gm0ReadPartGuest:
		if st.partGuest {
			st.carry0 = 1 // propose "guests participate"
		} else {
			st.carry0 = 0
		}
		st.pc0 = gm0XCons
	case gm0XCons:
		if st.xcons == -1 {
			st.xcons = st.carry0
		}
		st.pc0 = gm0WriteWinner
	case gm0WriteWinner:
		st.winner = st.xcons
		st.won0 = st.xcons
		st.pc0 = gm0ReadForArbVal
	case gm0ReadForArbVal:
		if st.won0 == 0 {
			st.carry0 = st.val0
		} else {
			// Guests won: ARB_VAL[1] is set (program order, Lemma 10).
			st.carry0 = st.arbVal1
		}
		st.pc0 = gm0WriteArbVal0
	case gm0WriteArbVal0:
		st.arbVal0 = st.carry0
		st.pc0 = gm0ReadReturn
	case gm0ReadReturn:
		st.dec0 = st.arbVal0
		st.pc0 = gm0Done
	}
	return st
}

func stepGuest(st groupState) groupState {
	switch st.pc1 {
	case gm1GX:
		if st.gx1 == -1 {
			st.gx1 = int8(st.inputs[1])
		}
		st.pc1 = gm1WriteVal
	case gm1WriteVal:
		st.val1 = st.gx1
		st.pc1 = gm1WriteArbVal1
	case gm1WriteArbVal1:
		// Competition #1 for the last group: ARB_VAL[m] ← VAL[m].
		st.arbVal1 = st.val1
		st.pc1 = gm1PartGuest
	case gm1PartGuest:
		st.partGuest = true
		st.pc1 = gm1ReadPartOwner
	case gm1ReadPartOwner:
		if st.partOwner {
			st.pc1 = gm1PollWinner
		} else {
			st.pc1 = gm1WriteWinnerGuest
		}
	case gm1PollWinner:
		if st.winner != -1 {
			st.won1 = st.winner
			st.pc1 = gm1ReadForArbVal
		} else {
			st.pc1 = gm1PollT2 // next step: the task-T2 poll
		}
	case gm1PollT2:
		if st.arbVal0 != -1 {
			// Task T2: a decision is visible; return it directly.
			st.dec1 = st.arbVal0
			st.pc1 = gm1Done
		} else {
			st.pc1 = gm1PollWinner
		}
	case gm1WriteWinnerGuest:
		st.winner = 1
		st.won1 = 1
		st.pc1 = gm1ReadForArbVal
	case gm1ReadForArbVal:
		if st.won1 == 1 {
			st.carry1 = st.arbVal1
		} else {
			// Owners won: VAL[0] is set (the owner wrote it before
			// arbitrating).
			st.carry1 = st.val0
		}
		st.pc1 = gm1WriteArbVal0
	case gm1WriteArbVal0:
		st.arbVal0 = st.carry1
		st.pc1 = gm1ReadReturn
	case gm1ReadReturn:
		st.dec1 = st.arbVal0
		st.pc1 = gm1Done
	}
	return st
}

// Decision implements Protocol.
func (GroupModel) Decision(s State, pid int) (int, bool) {
	st := s.(groupState)
	d := st.dec0
	if pid == 1 {
		d = st.dec1
	}
	if d != -1 {
		return int(d), true
	}
	return 0, false
}

// Access implements Protocol.
func (GroupModel) Access(s State, pid int) Access {
	st := s.(groupState)
	if pid == 0 {
		switch st.pc0 {
		case gm0GX:
			return Access{Object: "GXCONS[0]", IsRegister: false}
		case gm0XCons:
			return Access{Object: "XCONS", IsRegister: false}
		case gm0WriteVal:
			return Access{Object: "VAL[0]", IsRegister: true}
		case gm0PartOwner, gm0ReadPartGuest:
			return Access{Object: "PART", IsRegister: true}
		case gm0WriteWinner:
			return Access{Object: "WINNER", IsRegister: true}
		default:
			return Access{Object: "ARB_VAL", IsRegister: true}
		}
	}
	switch st.pc1 {
	case gm1GX:
		return Access{Object: "GXCONS[1]", IsRegister: false}
	case gm1WriteVal:
		return Access{Object: "VAL[1]", IsRegister: true}
	case gm1PartGuest, gm1ReadPartOwner:
		return Access{Object: "PART", IsRegister: true}
	case gm1PollWinner, gm1WriteWinnerGuest:
		return Access{Object: "WINNER", IsRegister: true}
	default:
		return Access{Object: "ARB_VAL", IsRegister: true}
	}
}

// OwnerSilentAfterAnnounce reports whether the model state has the owner
// stopped right after announcing participation (PART[owner] set, WINNER
// unset, owner not finished) — the configuration in which the paper's
// termination guarantee gives the guest nothing unless task T2 rescues it.
func OwnerSilentAfterAnnounce(s State) bool {
	st, ok := s.(groupState)
	if !ok {
		return false
	}
	return st.partOwner && st.winner == -1 && st.pc0 != gm0Done
}
