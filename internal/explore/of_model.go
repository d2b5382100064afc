package explore

import "fmt"

// OFModel is the explicit-state model of the register-only obstruction-free
// binary consensus object of internal/consensus (rounds of commit-adopt plus
// a decision register), for two processes, with rounds capped at Rounds.
//
// Every shared access is one event: reading the decision register, writing a
// phase-1 slot, collecting the two phase-1 slots, writing a phase-2 slot,
// collecting the two phase-2 slots, and writing the decision register on
// commit. All objects are atomic registers, matching the paper's premise
// that obstruction-free consensus is implementable from registers alone
// (Section 1.2, citing [8]).
//
// Reaching the round cap leaves a process stuck-undecided; the cap is chosen
// by the caller so that the properties checked (initial bivalence, livelock
// pumps) are insensitive to it.
type OFModel struct {
	// Rounds caps the number of commit-adopt rounds modelled.
	Rounds int
}

var _ Protocol = OFModel{}

// Program counters for each process.
const (
	ofCheckDec = iota
	ofWrite1
	ofRead1a
	ofRead1b
	ofWrite2
	ofRead2a
	ofRead2b
	ofWriteDec
	ofDone
	ofCapped
)

// a2 slot encoding: -1 unset, otherwise val*2 + flag.
func a2enc(val int, flag bool) int8 {
	e := int8(val * 2)
	if flag {
		e++
	}
	return e
}

func a2dec(e int8) (val int, flag bool) { return int(e / 2), e%2 == 1 }

// ofProc is the per-process portion of an OFModel state.
type ofProc struct {
	pc    int8
	round int8
	est   int8
	// Phase-1 collect scratch.
	seenVal  int8 // first (smallest-slot) phase-1 value seen; -1 none
	seenMult bool
	// Phase-2 entry and collect scratch.
	entVal  int8
	entFlag bool
	flagVal int8 // flagged value seen in phase-2 collect; -1 none
	nonFlag bool // an unflagged phase-2 entry was seen
	decided int8 // -1, or the decided value
}

// ofState is a reachable state of OFModel.
type ofState struct {
	rounds int
	dec    int8 // decision register: -1 unset
	procs  [2]ofProc
	// a1[r][slot]: -1 unset, else value. a2[r][slot]: encoded entry.
	a1 []int8
	a2 []int8
}

// AppendKey implements State. All fields are small signed bytes (-1 values
// shifted up by one); the a1/a2 array lengths are fixed per run.
func (s ofState) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(s.dec+1))
	for _, p := range s.procs {
		dst = append(dst,
			byte(p.pc), byte(p.round), byte(p.est+1),
			byte(p.seenVal+1), boolByte(p.seenMult),
			byte(p.entVal+1), boolByte(p.entFlag),
			byte(p.flagVal+1), boolByte(p.nonFlag), byte(p.decided+1))
	}
	for _, v := range s.a1 {
		dst = append(dst, byte(v+1))
	}
	for _, v := range s.a2 {
		dst = append(dst, byte(v+1))
	}
	return dst
}

func (s ofState) clone() ofState {
	s.a1 = append([]int8(nil), s.a1...)
	s.a2 = append([]int8(nil), s.a2...)
	return s
}

func (s *ofState) a1at(r, slot int) int8     { return s.a1[2*r+slot] }
func (s *ofState) seta1(r, slot int, v int8) { s.a1[2*r+slot] = v }
func (s *ofState) a2at(r, slot int) int8     { return s.a2[2*r+slot] }
func (s *ofState) seta2(r, slot int, v int8) { s.a2[2*r+slot] = v }

// N implements Protocol.
func (OFModel) N() int { return 2 }

// Initial implements Protocol.
func (m OFModel) Initial(inputs []int) State {
	s := ofState{rounds: m.Rounds, dec: -1}
	s.a1 = make([]int8, 2*m.Rounds)
	s.a2 = make([]int8, 2*m.Rounds)
	for i := range s.a1 {
		s.a1[i] = -1
		s.a2[i] = -1
	}
	for i := 0; i < 2; i++ {
		s.procs[i] = ofProc{pc: ofCheckDec, est: int8(inputs[i]), seenVal: -1, flagVal: -1, decided: -1}
	}
	return s
}

// Enabled implements Protocol.
func (OFModel) Enabled(s State, pid int) bool {
	st := s.(ofState)
	pc := st.procs[pid].pc
	return pc != ofDone && pc != ofCapped
}

// Next implements Protocol.
func (m OFModel) Next(s State, pid int) State {
	st := s.(ofState).clone()
	p := &st.procs[pid]
	r := int(p.round)
	switch p.pc {
	case ofCheckDec:
		if st.dec != -1 {
			p.decided = st.dec
			p.pc = ofDone
		} else if r >= st.rounds {
			p.pc = ofCapped
		} else {
			p.pc = ofWrite1
		}
	case ofWrite1:
		st.seta1(r, pid, p.est)
		p.seenVal, p.seenMult = -1, false
		p.pc = ofRead1a
	case ofRead1a, ofRead1b:
		slot := 0
		if p.pc == ofRead1b {
			slot = 1
		}
		if v := st.a1at(r, slot); v != -1 {
			if p.seenVal == -1 {
				p.seenVal = v
			} else if v != p.seenVal {
				p.seenMult = true
			}
		}
		if p.pc == ofRead1a {
			p.pc = ofRead1b
		} else {
			p.entVal, p.entFlag = p.seenVal, !p.seenMult
			p.pc = ofWrite2
		}
	case ofWrite2:
		st.seta2(r, pid, a2enc(int(p.entVal), p.entFlag))
		p.flagVal, p.nonFlag = -1, false
		p.pc = ofRead2a
	case ofRead2a, ofRead2b:
		slot := 0
		if p.pc == ofRead2b {
			slot = 1
		}
		if e := st.a2at(r, slot); e != -1 {
			val, flag := a2dec(e)
			if flag {
				p.flagVal = int8(val)
			} else {
				p.nonFlag = true
			}
		}
		if p.pc == ofRead2a {
			p.pc = ofRead2b
			break
		}
		// End of phase-2 collect: commit, or adopt and advance a round.
		switch {
		case p.flagVal != -1 && !p.nonFlag:
			p.est = p.flagVal
			p.pc = ofWriteDec
		case p.flagVal != -1:
			p.est = p.flagVal
			p.round++
			p.pc = ofCheckDec
		default:
			p.est = p.entVal
			p.round++
			p.pc = ofCheckDec
		}
	case ofWriteDec:
		st.dec = p.est
		p.decided = p.est
		p.pc = ofDone
	}
	return st
}

// Decision implements Protocol.
func (OFModel) Decision(s State, pid int) (int, bool) {
	st := s.(ofState)
	if d := st.procs[pid].decided; d != -1 {
		return int(d), true
	}
	return 0, false
}

// Access implements Protocol. Every object in this model is a register.
func (OFModel) Access(s State, pid int) Access {
	st := s.(ofState)
	p := st.procs[pid]
	r := p.round
	switch p.pc {
	case ofCheckDec, ofWriteDec:
		return Access{Object: "dec", IsRegister: true}
	case ofWrite1, ofRead1a, ofRead1b:
		return Access{Object: fmt.Sprintf("a1[%d]", r), IsRegister: true}
	default:
		return Access{Object: fmt.Sprintf("a2[%d]", r), IsRegister: true}
	}
}

// AtRoundBoundary reports whether both processes sit at the start of round r
// with the decision register unset and distinct estimates — the pump
// configuration used to certify a livelock: if round r's boundary with
// distinct estimates can reach round r+1's boundary with distinct estimates,
// the adversary can repeat that segment forever and no process ever decides
// (a fault-free non-deciding run, the executable content of Theorem 4).
func AtRoundBoundary(s State, r int) bool {
	st, ok := s.(ofState)
	if !ok {
		return false
	}
	if st.dec != -1 {
		return false
	}
	for _, p := range st.procs {
		if p.pc != ofCheckDec || int(p.round) != r {
			return false
		}
	}
	return st.procs[0].est != st.procs[1].est
}
