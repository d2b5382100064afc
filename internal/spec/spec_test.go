package spec

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/memory"
	"repro/internal/sched"
)

func TestSequentialRegisterHistory(t *testing.T) {
	h := []CASOp{
		{Proc: 0, Call: 1, Ret: 2, Kind: Write, Val: "5"},
		{Proc: 0, Call: 3, Ret: 4, Kind: Read, Val: "5"},
		{Proc: 1, Call: 5, Ret: 6, Kind: Write, Val: "7"},
		{Proc: 1, Call: 7, Ret: 8, Kind: Read, Val: "7"},
	}
	if !agree(t, CASRegisterModel{Initial: "0"}, h) {
		t.Error("legal sequential history rejected")
	}
}

func TestStaleReadRejected(t *testing.T) {
	h := []CASOp{
		{Proc: 0, Call: 1, Ret: 2, Kind: Write, Val: "5"},
		{Proc: 1, Call: 3, Ret: 4, Kind: Read, Val: "0"}, // stale: 5 already written
	}
	if agree(t, CASRegisterModel{Initial: "0"}, h) {
		t.Error("stale read accepted")
	}
}

func TestConcurrentReadMayReturnEitherValue(t *testing.T) {
	// A read concurrent with a write may return the old or the new value.
	for _, out := range []string{"0", "5"} {
		h := []CASOp{
			{Proc: 0, Call: 1, Ret: 10, Kind: Write, Val: "5"},
			{Proc: 1, Call: 2, Ret: 9, Kind: Read, Val: out},
		}
		if !agree(t, CASRegisterModel{Initial: "0"}, h) {
			t.Errorf("concurrent read of %s rejected", out)
		}
	}
}

func TestEmptyHistory(t *testing.T) {
	if !agree(t, CASRegisterModel{Initial: "0"}, nil) {
		t.Error("empty history rejected")
	}
}

// TestRegisterImplementationHistoriesLinearizable drives the real register
// under real goroutines (free mode) and checks the collected histories.
func TestRegisterImplementationHistoriesLinearizable(t *testing.T) {
	property := func(seed uint64) bool {
		reg := memory.NewRegister("r", "0")
		var clock atomic.Int64
		const n = 3
		hist := make([][]CASOp, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				p := sched.FreeProc(id)
				for k := 0; k < 3; k++ {
					if (id+k)%2 == 0 {
						v := strconv.Itoa(id*10 + k)
						call := clock.Add(1)
						reg.Write(p, v)
						ret := clock.Add(1)
						hist[id] = append(hist[id], CASOp{Proc: id, Call: call, Ret: ret, Kind: Write, Val: v})
					} else {
						call := clock.Add(1)
						v := reg.Read(p)
						ret := clock.Add(1)
						hist[id] = append(hist[id], CASOp{Proc: id, Call: call, Ret: ret, Kind: Read, Val: v})
					}
				}
			}(i)
		}
		wg.Wait()
		var all []CASOp
		for _, h := range hist {
			all = append(all, h...)
		}
		return agree(t, CASRegisterModel{Initial: "0"}, all)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// propose is one completed single-shot consensus call: process proc
// proposed in over [call, ret] and was told the decision out.
type propose struct {
	proc      int
	call, ret int64
	in, out   string
}

// proposes restates consensus calls over CASRegisterModel with initial
// value "": each becomes a cas("" → in) that succeeded iff out == in, plus
// a read of out over the same interval. Such a history linearizes iff one
// propose decided its own value first and every propose returned that
// value — agreement and validity.
func proposes(ps []propose) []CASOp {
	var out []CASOp
	for _, p := range ps {
		out = append(out,
			CASOp{Proc: p.proc, Call: p.call, Ret: p.ret, Kind: CAS, Old: "", Val: p.in, OK: p.out == p.in},
			CASOp{Proc: p.proc, Call: p.call, Ret: p.ret, Kind: Read, Val: p.out})
	}
	return out
}

// TestConsensusModel checks that the consensus encoding accepts a legal
// history and rejects disagreeing and invalid decisions.
func TestConsensusModel(t *testing.T) {
	m := CASRegisterModel{Initial: ""}
	if !agree(t, m, proposes([]propose{{0, 1, 4, "7", "7"}, {1, 2, 5, "9", "7"}})) {
		t.Error("legal consensus history rejected")
	}
	if agree(t, m, proposes([]propose{{0, 1, 2, "7", "7"}, {1, 3, 4, "9", "9"}})) {
		t.Error("disagreeing consensus history accepted")
	}
	if agree(t, m, proposes([]propose{{0, 1, 2, "7", "3"}})) {
		t.Error("invalid consensus decision accepted")
	}
}

// TestConsensusImplementationHistoriesLinearizable checks the wait-free
// consensus object under controlled random schedules.
func TestConsensusImplementationHistoriesLinearizable(t *testing.T) {
	m := CASRegisterModel{Initial: ""}
	property := func(seed uint64) bool {
		const n = 4
		c := memory.NewOnce[int]("dec")
		var clock atomic.Int64
		hist := make([]propose, n)
		r := sched.NewRun(n, sched.NewRandom(seed))
		r.SpawnAll(func(p *sched.Proc) {
			call := clock.Add(1)
			v := c.Propose(p, p.ID())
			ret := clock.Add(1)
			hist[p.ID()] = propose{p.ID(), call, ret, strconv.Itoa(p.ID()), strconv.Itoa(v)}
		})
		res := r.Execute(1000)
		if res.DoneCount() != n {
			return false
		}
		return agree(t, m, proposes(hist))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTooLargeHistoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("64-op history did not panic")
		}
	}()
	h := make([]CASOp, 64)
	for i := range h {
		h[i] = CASOp{Call: int64(i), Ret: int64(i) + 1, Kind: Read, Val: "0"}
	}
	Check(CASRegisterModel{Initial: "0"}, h)
}
