package explore

// Arbiter-model roles. Decision values returned by the model: 0 = the owner
// side won, 1 = the guest side won.
const (
	ArbOwner = 0
	ArbGuest = 1
)

// ArbiterModel is the explicit-state model of the Figure 4 arbiter for a
// small set of processes with fixed roles. Every line of the pseudo-code is
// one event:
//
//	owner: write PART[owner]; read PART[guest]; access XCONS (the owners'
//	       wait-free consensus object, the only non-register); write WINNER;
//	       read WINNER (return).
//	guest: write PART[guest]; read PART[owner]; then either write WINNER
//	       (no owner visible) or poll WINNER until set; read WINNER (return).
//
// The explorer checks the arbiter's Agreement and Validity properties
// exhaustively over all interleavings and all participation prefixes (a
// crash is indistinguishable from never being scheduled again, so prefix
// states cover all crash patterns for safety), and the Termination clauses
// via solo-run checks from reachable states.
type ArbiterModel struct {
	// Roles fixes each process's role (ArbOwner or ArbGuest).
	Roles []int
}

var _ Protocol = ArbiterModel{}

const (
	arbWritePart = iota
	arbReadOther
	arbXCons
	arbWriteWinner
	arbPollWinner
	arbReadReturn
	arbDone
)

type arbProc struct {
	pc       int8
	seenPart bool // owner: PART[guest] it read; guest: PART[owner] it read
	decided  int8 // -1 or ArbOwner/ArbGuest
}

type arbState struct {
	roles     []int
	partOwner bool
	partGuest bool
	winner    int8 // -1 unset
	xcons     int8 // -1 undecided, else 0 (owners win) / 1 (guests win)
	procs     []arbProc
}

// AppendKey implements State. The role assignment is constant over a run,
// so the key covers the shared registers and each process's control state
// (-1 values shifted up by one).
func (s arbState) AppendKey(dst []byte) []byte {
	dst = append(dst,
		boolByte(s.partOwner), boolByte(s.partGuest),
		byte(s.winner+1), byte(s.xcons+1))
	for _, p := range s.procs {
		dst = append(dst, byte(p.pc), boolByte(p.seenPart), byte(p.decided+1))
	}
	return dst
}

func (s arbState) clone() arbState {
	s.procs = append([]arbProc(nil), s.procs...)
	return s
}

// N implements Protocol.
func (m ArbiterModel) N() int { return len(m.Roles) }

// Initial implements Protocol. Inputs are ignored (arbitrations carry no
// proposal values; the role assignment is the input).
func (m ArbiterModel) Initial(_ []int) State {
	s := arbState{roles: append([]int(nil), m.Roles...), winner: -1, xcons: -1}
	for range m.Roles {
		s.procs = append(s.procs, arbProc{pc: arbWritePart, decided: -1})
	}
	return s
}

// Enabled implements Protocol.
func (ArbiterModel) Enabled(s State, pid int) bool {
	return s.(arbState).procs[pid].pc != arbDone
}

// Next implements Protocol.
func (ArbiterModel) Next(s State, pid int) State {
	st := s.(arbState).clone()
	p := &st.procs[pid]
	owner := st.roles[pid] == ArbOwner
	switch p.pc {
	case arbWritePart:
		if owner {
			st.partOwner = true
		} else {
			st.partGuest = true
		}
		p.pc = arbReadOther
	case arbReadOther:
		if owner {
			p.seenPart = st.partGuest
			p.pc = arbXCons
		} else {
			p.seenPart = st.partOwner
			if p.seenPart {
				p.pc = arbPollWinner
			} else {
				p.pc = arbWriteWinner
			}
		}
	case arbXCons:
		// The owners' wait-free consensus: first access decides.
		if st.xcons == -1 {
			if p.seenPart {
				st.xcons = ArbGuest
			} else {
				st.xcons = ArbOwner
			}
		}
		p.pc = arbWriteWinner
	case arbWriteWinner:
		if owner {
			st.winner = st.xcons
		} else {
			st.winner = ArbGuest
		}
		p.pc = arbReadReturn
	case arbPollWinner:
		if st.winner != -1 {
			p.pc = arbReadReturn
		}
		// else: stay at arbPollWinner (the spin loop consumes a step).
	case arbReadReturn:
		p.decided = st.winner
		p.pc = arbDone
	}
	return st
}

// Decision implements Protocol.
func (ArbiterModel) Decision(s State, pid int) (int, bool) {
	st := s.(arbState)
	if d := st.procs[pid].decided; d != -1 {
		return int(d), true
	}
	return 0, false
}

// Access implements Protocol.
func (ArbiterModel) Access(s State, pid int) Access {
	st := s.(arbState)
	p := st.procs[pid]
	owner := st.roles[pid] == ArbOwner
	switch p.pc {
	case arbWritePart:
		if owner {
			return Access{Object: "PART[owner]", IsRegister: true}
		}
		return Access{Object: "PART[guest]", IsRegister: true}
	case arbReadOther:
		if owner {
			return Access{Object: "PART[guest]", IsRegister: true}
		}
		return Access{Object: "PART[owner]", IsRegister: true}
	case arbXCons:
		return Access{Object: "XCONS", IsRegister: false}
	default:
		return Access{Object: "WINNER", IsRegister: true}
	}
}

// Returned reports whether some process has returned from its arbitration
// at state s (used to check the "if a process returns..." termination
// clause).
func Returned(s State) bool {
	st, ok := s.(arbState)
	if !ok {
		return false
	}
	for _, p := range st.procs {
		if p.decided != -1 {
			return true
		}
	}
	return false
}
