package explore

// GatedModel is the explicit-state model of a (2, 1)-live binary consensus
// object (the Gated object of internal/consensus, specialized to one
// wait-free port p0 and one guest p1). It is the model on which the E8
// experiments verify Lemmas 3, 4 and 5 exhaustively:
//
//   - p0 (wait-free): writes the activity register, then performs one
//     read-modify-write on the decision cell D and decides.
//   - p1 (guest): reads the activity register (arming its interference
//     gate), performs the read-modify-write on D, re-reads the activity
//     register; if nothing interfered it decides, otherwise it retries.
//
// D is the only non-register object; the activity register is an atomic
// register. The model is finite (the unbounded activity counter is
// abstracted by a dirty bit, which is exactly what the gate observes).
type GatedModel struct{}

var _ Protocol = GatedModel{}

const (
	gp0WriteAct = 0
	gp0AccessD  = 1
	gp0Done     = 2

	gp1Arm     = 0
	gp1AccessD = 1
	gp1Check   = 2
	gp1Done    = 3
)

// gatedState is a reachable state of GatedModel.
type gatedState struct {
	inputs [2]int
	dec    int // -1 undecided, else value in D
	pc0    int
	pc1    int
	dirty  bool // activity register written since p1 armed
	val0   int  // p0's decision (valid when pc0 == gp0Done)
	val1   int  // p1's decision (valid when pc1 == gp1Done)
}

// AppendKey implements State. Every field fits one byte (-1 values are
// shifted up by one).
func (s gatedState) AppendKey(dst []byte) []byte {
	return append(dst,
		byte(s.inputs[0]), byte(s.inputs[1]), byte(s.dec+1),
		byte(s.pc0), byte(s.pc1), boolByte(s.dirty),
		byte(s.val0+1), byte(s.val1+1))
}

// N implements Protocol.
func (GatedModel) N() int { return 2 }

// Initial implements Protocol.
func (GatedModel) Initial(inputs []int) State {
	return gatedState{inputs: [2]int{inputs[0], inputs[1]}, dec: -1, val0: -1, val1: -1}
}

// Enabled implements Protocol.
func (GatedModel) Enabled(s State, pid int) bool {
	st := s.(gatedState)
	if pid == 0 {
		return st.pc0 != gp0Done
	}
	return st.pc1 != gp1Done
}

// Next implements Protocol.
func (GatedModel) Next(s State, pid int) State {
	st := s.(gatedState)
	if pid == 0 {
		switch st.pc0 {
		case gp0WriteAct:
			st.dirty = true
			st.pc0 = gp0AccessD
		case gp0AccessD:
			if st.dec == -1 {
				st.dec = st.inputs[0]
			}
			st.val0 = st.dec
			st.pc0 = gp0Done
		}
		return st
	}
	switch st.pc1 {
	case gp1Arm:
		st.dirty = false
		st.pc1 = gp1AccessD
	case gp1AccessD:
		if st.dec == -1 {
			st.dec = st.inputs[1]
		}
		st.pc1 = gp1Check
	case gp1Check:
		if !st.dirty {
			st.val1 = st.dec
			st.pc1 = gp1Done
		} else {
			st.pc1 = gp1Arm
		}
	}
	return st
}

// Decision implements Protocol.
func (GatedModel) Decision(s State, pid int) (int, bool) {
	st := s.(gatedState)
	if pid == 0 {
		if st.pc0 == gp0Done {
			return st.val0, true
		}
		return 0, false
	}
	if st.pc1 == gp1Done {
		return st.val1, true
	}
	return 0, false
}

// Access implements Protocol.
func (GatedModel) Access(s State, pid int) Access {
	st := s.(gatedState)
	if pid == 0 {
		if st.pc0 == gp0WriteAct {
			return Access{Object: "act", IsRegister: true}
		}
		return Access{Object: "D", IsRegister: false}
	}
	switch st.pc1 {
	case gp1Arm, gp1Check:
		return Access{Object: "act", IsRegister: true}
	default:
		return Access{Object: "D", IsRegister: false}
	}
}
