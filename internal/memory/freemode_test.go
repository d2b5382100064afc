package memory

import (
	"sync"
	"testing"

	"repro/internal/sched"
)

// Free-mode race suite: every primitive is hammered from real goroutines
// (sched.FreeProc, no scheduler) so that `go test -race` exercises the
// actual memory-ordering claims the package makes for free mode, not just
// the controlled-mode serialization.

const (
	freeProcs = 8
	freeIters = 2000
)

// hammer runs body(p, iter) from freeProcs goroutines, freeIters iterations
// each, and waits for all of them.
func hammer(t *testing.T, body func(p *sched.Proc, iter int)) {
	t.Helper()
	var wg sync.WaitGroup
	for id := 0; id < freeProcs; id++ {
		wg.Add(1)
		go func(p *sched.Proc) {
			defer wg.Done()
			for i := 0; i < freeIters; i++ {
				body(p, i)
			}
		}(sched.FreeProc(id))
	}
	wg.Wait()
}

func TestFreeModeRegister(t *testing.T) {
	r := NewRegister("r", 0)
	hammer(t, func(p *sched.Proc, i int) {
		r.Write(p, p.ID()*freeIters+i)
		got := r.Read(p)
		// Every read returns some written value (or the initial 0): the
		// register never tears into an out-of-range value.
		if got < 0 || got >= freeProcs*freeIters {
			t.Errorf("register read %d out of range", got)
		}
	})
}

func TestFreeModeAtomicRegister(t *testing.T) {
	r := NewAtomicRegister("ar", 0)
	hammer(t, func(p *sched.Proc, i int) {
		r.Write(p, p.ID()*freeIters+i)
		got := r.Read(p)
		if got < 0 || got >= freeProcs*freeIters {
			t.Errorf("atomic register read %d out of range", got)
		}
		prev := r.Swap(p, got)
		if prev < 0 || prev >= freeProcs*freeIters {
			t.Errorf("atomic register swap returned %d out of range", prev)
		}
	})

	// Zero value holds 0, and every value of T round-trips, signed or not.
	var zero AtomicRegister[int8]
	p := sched.FreeProc(0)
	if got := zero.Read(p); got != 0 {
		t.Errorf("zero-value read = %d, want 0", got)
	}
	if got := zero.Swap(p, -128); got != 0 {
		t.Errorf("zero-value swap returned %d, want 0", got)
	}
	if got := zero.Read(p); got != -128 {
		t.Errorf("read after swap = %d, want -128", got)
	}
	big := NewAtomicRegister("big", uint64(1<<64-1))
	if got := big.Read(p); got != 1<<64-1 {
		t.Errorf("uint64 read = %d, want %d", got, uint64(1<<64-1))
	}
}

func TestFreeModeOptRegisterAndOnce(t *testing.T) {
	r := NewOptRegister[int]("opt")
	o := NewOnce[int]("once")
	var decided [freeProcs]int
	hammer(t, func(p *sched.Proc, i int) {
		r.Write(p, p.ID())
		if v, ok := r.Read(p); ok && (v < 0 || v >= freeProcs) {
			t.Errorf("opt register read %d out of range", v)
		}
		decided[p.ID()] = o.Propose(p, p.ID()+1)
	})
	// Once is agreement: every goroutine saw the same winning value, and it
	// was proposed by someone.
	first := decided[0]
	if first < 1 || first > freeProcs {
		t.Fatalf("once decided %d, not a proposed value", first)
	}
	for id, v := range decided {
		if v != first {
			t.Errorf("once disagreement: proc %d decided %d, proc 0 decided %d", id, v, first)
		}
	}
	if v, ok := o.TryGet(sched.FreeProc(0)); !ok || v != first {
		t.Errorf("TryGet = (%d, %v), want (%d, true)", v, ok, first)
	}
}

func TestFreeModeCounter(t *testing.T) {
	c := NewCounter("c")
	hammer(t, func(p *sched.Proc, i int) {
		c.FetchAdd(p, 1)
	})
	p := sched.FreeProc(0)
	if got := c.Read(p); got != freeProcs*freeIters {
		t.Fatalf("counter = %d, want %d", got, freeProcs*freeIters)
	}
}

func TestFreeModeTestAndSet(t *testing.T) {
	tas := NewTestAndSet("tas")
	var wins [freeProcs]int
	hammer(t, func(p *sched.Proc, i int) {
		if tas.Set(p) {
			wins[p.ID()]++
		}
		if !tas.Read(p) {
			t.Error("tas read false after a set")
		}
	})
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != 1 {
		t.Fatalf("test&set had %d winners, want exactly 1", total)
	}
}

func TestFreeModeCAS(t *testing.T) {
	// Each goroutine repeatedly increments via cas-loop; exactly one
	// increment wins per success, so the final value is the success count.
	c := NewCAS("cas", int64(0))
	var succ [freeProcs]int64
	hammer(t, func(p *sched.Proc, i int) {
		for {
			cur := c.Load(p)
			if c.CompareAndSwap(p, cur, cur+1) {
				succ[p.ID()]++
				return
			}
		}
	})
	p := sched.FreeProc(0)
	var want int64
	for _, s := range succ {
		want += s
	}
	if want != freeProcs*freeIters {
		t.Fatalf("cas successes = %d, want %d", want, freeProcs*freeIters)
	}
	if got := c.Load(p); got != want {
		t.Fatalf("cas value = %d, want %d", got, want)
	}

	// Swap hands values around losslessly: the multiset {initial} ∪
	// {swapped-in} equals {swapped-out} ∪ {final}.
	s := NewCAS("swap", int64(-1))
	var outSum [freeProcs]int64
	var inSum [freeProcs]int64
	hammer(t, func(p *sched.Proc, i int) {
		v := int64(p.ID()*freeIters + i)
		inSum[p.ID()] += v
		outSum[p.ID()] += s.Swap(p, v)
	})
	var in, out int64
	for id := 0; id < freeProcs; id++ {
		in += inSum[id]
		out += outSum[id]
	}
	final := s.Load(p)
	if in+(-1) != out+final {
		t.Fatalf("swap lost a value: in+init=%d, out+final=%d", in-1, out+final)
	}
}

func TestFreeModeArrays(t *testing.T) {
	ra := NewRegisterArray("ra", freeProcs, 0)
	oa := NewOptArray[int]("oa", freeProcs)
	hammer(t, func(p *sched.Proc, i int) {
		ra.Write(p, p.ID(), i)
		oa.Write(p, p.ID(), i)
		_ = ra.Collect(p)
		if v, ok := oa.Read(p, p.ID()); !ok || v < 0 || v >= freeIters {
			t.Errorf("opt array read (%d, %v) unexpected", v, ok)
		}
	})
}
