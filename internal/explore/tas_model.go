package explore

import "fmt"

// TASModel is the explicit-state model of the classic consensus protocol
// from one test&set bit and per-process preference registers, for N
// processes:
//
//	prefer[i] ← v_i
//	if T&S wins: decide v_i
//	else: scan the other prefer slots in id order and decide the first set
//	      one
//
// For N = 2 this is the textbook protocol showing Test&Set has consensus
// number at least 2 (Section 3.5's Common2 discussion): the explorer proves
// agreement and validity over the full reachable graph. For N = 3 the same
// natural generalization admits an agreement violation, which the explorer
// exhibits — the operational face of Test&Set's consensus number being
// exactly 2.
type TASModel struct {
	// Procs is the number of processes (2 or 3 in the experiments).
	Procs int
}

var _ Protocol = TASModel{}

const (
	tasWritePref = iota
	tasTAS
	tasScanBase // tasScanBase+k = about to read prefer[k]
)

type tasProc struct {
	pc      int8
	won     bool
	decided int8 // -1 or value
}

type tasState struct {
	n      int
	inputs []int8
	prefer []int8 // -1 unset
	tas    bool
	procs  []tasProc
}

// AppendKey implements State. The inputs are constant over a run, so the
// key covers the T&S bit, the prefer array (values shifted up by one) and
// each process's control state.
func (s tasState) AppendKey(dst []byte) []byte {
	dst = append(dst, boolByte(s.tas))
	for _, v := range s.prefer {
		dst = append(dst, byte(v+1))
	}
	for _, p := range s.procs {
		dst = append(dst, byte(p.pc), boolByte(p.won), byte(p.decided+1))
	}
	return dst
}

func (s tasState) clone() tasState {
	s.inputs = append([]int8(nil), s.inputs...)
	s.prefer = append([]int8(nil), s.prefer...)
	s.procs = append([]tasProc(nil), s.procs...)
	return s
}

// N implements Protocol.
func (m TASModel) N() int { return m.Procs }

// Initial implements Protocol.
func (m TASModel) Initial(inputs []int) State {
	s := tasState{n: m.Procs}
	for i := 0; i < m.Procs; i++ {
		s.inputs = append(s.inputs, int8(inputs[i]))
		s.prefer = append(s.prefer, -1)
		s.procs = append(s.procs, tasProc{pc: tasWritePref, decided: -1})
	}
	return s
}

// Enabled implements Protocol.
func (TASModel) Enabled(s State, pid int) bool {
	st := s.(tasState)
	return st.procs[pid].decided == -1
}

// Next implements Protocol.
func (TASModel) Next(s State, pid int) State {
	st := s.(tasState).clone()
	p := &st.procs[pid]
	switch {
	case p.pc == tasWritePref:
		st.prefer[pid] = st.inputs[pid]
		p.pc = tasTAS
	case p.pc == tasTAS:
		if !st.tas {
			st.tas = true
			p.won = true
			p.decided = st.inputs[pid]
		} else {
			// Loser: scan the other slots in id order.
			p.pc = tasScanBase + int8(firstOther(pid, st.n, -1))
		}
	default:
		slot := int(p.pc - tasScanBase)
		if st.prefer[slot] != -1 {
			p.decided = st.prefer[slot]
		} else {
			next := firstOther(pid, st.n, slot)
			if next == -1 {
				// No other slot set: retry from the first other slot (the
				// winner's slot is set before its T&S in program order, so
				// this terminates — but the explorer does not rely on that).
				next = firstOther(pid, st.n, -1)
			}
			p.pc = tasScanBase + int8(next)
		}
	}
	return st
}

// firstOther returns the smallest id > after that differs from pid, or -1.
func firstOther(pid, n, after int) int {
	for id := after + 1; id < n; id++ {
		if id != pid {
			return id
		}
	}
	return -1
}

// Decision implements Protocol.
func (TASModel) Decision(s State, pid int) (int, bool) {
	st := s.(tasState)
	if d := st.procs[pid].decided; d != -1 {
		return int(d), true
	}
	return 0, false
}

// Access implements Protocol.
func (TASModel) Access(s State, pid int) Access {
	st := s.(tasState)
	p := st.procs[pid]
	switch {
	case p.pc == tasWritePref:
		return Access{Object: fmt.Sprintf("prefer[%d]", pid), IsRegister: true}
	case p.pc == tasTAS:
		return Access{Object: "tas", IsRegister: false}
	default:
		return Access{Object: fmt.Sprintf("prefer[%d]", p.pc-tasScanBase), IsRegister: true}
	}
}
