package spec

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/memory"
	"repro/internal/sched"
)

func TestSequentialRegisterHistory(t *testing.T) {
	h := []Op{
		{Proc: 0, Call: 1, Ret: 2, Method: "write", In: 5},
		{Proc: 0, Call: 3, Ret: 4, Method: "read", Out: 5},
		{Proc: 1, Call: 5, Ret: 6, Method: "write", In: 7},
		{Proc: 1, Call: 7, Ret: 8, Method: "read", Out: 7},
	}
	if !agree(t, RegisterModel{Initial: 0}, h) {
		t.Error("legal sequential history rejected")
	}
}

func TestStaleReadRejected(t *testing.T) {
	h := []Op{
		{Proc: 0, Call: 1, Ret: 2, Method: "write", In: 5},
		{Proc: 1, Call: 3, Ret: 4, Method: "read", Out: 0}, // stale: 5 already written
	}
	if agree(t, RegisterModel{Initial: 0}, h) {
		t.Error("stale read accepted")
	}
}

func TestConcurrentReadMayReturnEitherValue(t *testing.T) {
	// A read concurrent with a write may return the old or the new value.
	for _, out := range []int{0, 5} {
		h := []Op{
			{Proc: 0, Call: 1, Ret: 10, Method: "write", In: 5},
			{Proc: 1, Call: 2, Ret: 9, Method: "read", Out: out},
		}
		if !agree(t, RegisterModel{Initial: 0}, h) {
			t.Errorf("concurrent read of %d rejected", out)
		}
	}
}

func TestQueueModelFIFO(t *testing.T) {
	h := []Op{
		{Proc: 0, Call: 1, Ret: 2, Method: "enq", In: 1},
		{Proc: 0, Call: 3, Ret: 4, Method: "enq", In: 2},
		{Proc: 1, Call: 5, Ret: 6, Method: "deq", Out: 1},
		{Proc: 1, Call: 7, Ret: 8, Method: "deq", Out: 2},
		{Proc: 1, Call: 9, Ret: 10, Method: "deq", Out: nil},
	}
	if !agree(t, QueueModel{}, h) {
		t.Error("legal FIFO history rejected")
	}
	bad := []Op{
		{Proc: 0, Call: 1, Ret: 2, Method: "enq", In: 1},
		{Proc: 0, Call: 3, Ret: 4, Method: "enq", In: 2},
		{Proc: 1, Call: 5, Ret: 6, Method: "deq", Out: 2}, // LIFO
	}
	if agree(t, QueueModel{}, bad) {
		t.Error("LIFO history accepted by queue model")
	}
}

func TestConsensusModel(t *testing.T) {
	good := []Op{
		{Proc: 0, Call: 1, Ret: 4, Method: "propose", In: 7, Out: 7},
		{Proc: 1, Call: 2, Ret: 5, Method: "propose", In: 9, Out: 7},
	}
	if !agree(t, ConsensusModel{}, good) {
		t.Error("legal consensus history rejected")
	}
	bad := []Op{
		{Proc: 0, Call: 1, Ret: 2, Method: "propose", In: 7, Out: 7},
		{Proc: 1, Call: 3, Ret: 4, Method: "propose", In: 9, Out: 9}, // disagrees
	}
	if agree(t, ConsensusModel{}, bad) {
		t.Error("disagreeing consensus history accepted")
	}
	invalid := []Op{
		{Proc: 0, Call: 1, Ret: 2, Method: "propose", In: 7, Out: 3}, // not proposed
	}
	if agree(t, ConsensusModel{}, invalid) {
		t.Error("invalid consensus decision accepted")
	}
}

func TestEmptyHistory(t *testing.T) {
	if !agree(t, RegisterModel{Initial: 0}, nil) {
		t.Error("empty history rejected")
	}
}

// TestRegisterImplementationHistoriesLinearizable drives the real register
// under real goroutines (free mode) and checks the collected histories.
func TestRegisterImplementationHistoriesLinearizable(t *testing.T) {
	property := func(seed uint64) bool {
		reg := memory.NewRegister("r", 0)
		var clock atomic.Int64
		const n = 3
		hist := make([][]Op, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				p := sched.FreeProc(id)
				for k := 0; k < 3; k++ {
					if (id+k)%2 == 0 {
						call := clock.Add(1)
						reg.Write(p, id*10+k)
						ret := clock.Add(1)
						hist[id] = append(hist[id], Op{
							Proc: id, Call: call, Ret: ret, Method: "write", In: id*10 + k,
						})
					} else {
						call := clock.Add(1)
						v := reg.Read(p)
						ret := clock.Add(1)
						hist[id] = append(hist[id], Op{
							Proc: id, Call: call, Ret: ret, Method: "read", Out: v,
						})
					}
				}
			}(i)
		}
		wg.Wait()
		var all []Op
		for _, h := range hist {
			all = append(all, h...)
		}
		return agree(t, RegisterModel{Initial: 0}, all)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestConsensusImplementationHistoriesLinearizable does the same for the
// wait-free consensus object under controlled random schedules.
func TestConsensusImplementationHistoriesLinearizable(t *testing.T) {
	property := func(seed uint64) bool {
		const n = 4
		ports := []int{0, 1, 2, 3}
		c := memory.NewOnce[int]("dec")
		_ = ports
		var clock atomic.Int64
		hist := make([]Op, n)
		r := sched.NewRun(n, sched.NewRandom(seed))
		r.SpawnAll(func(p *sched.Proc) {
			call := clock.Add(1)
			v := c.Propose(p, p.ID())
			ret := clock.Add(1)
			hist[p.ID()] = Op{Proc: p.ID(), Call: call, Ret: ret, Method: "propose", In: p.ID(), Out: v}
		})
		res := r.Execute(1000)
		if res.DoneCount() != n {
			return false
		}
		return agree(t, ConsensusModel{}, hist)
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
	h := make([]Op, 64)
	for i := range h {
		h[i] = Op{Call: int64(i), Ret: int64(i) + 1, Method: "read", Out: 0}
	}
	Check(RegisterModel{Initial: 0}, h)
}
