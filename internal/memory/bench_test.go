package memory

import (
	"testing"

	"repro/internal/sched"
)

// Free-mode micro-benchmarks (ns/op, allocs/op): the primitives as they run
// on the serving path — real goroutines, no scheduler, sched.FreeProc
// handles. The sequential variants measure the uncontended fast path; the
// parallel variants measure the contended one (b.RunParallel spreads the
// loop across GOMAXPROCS goroutines).

func BenchmarkFreeModeRegisterRead(b *testing.B) {
	r := NewRegister("r", 42)
	p := sched.FreeProc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Read(p)
	}
}

func BenchmarkFreeModeRegisterWrite(b *testing.B) {
	r := NewRegister("r", 0)
	p := sched.FreeProc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Write(p, i)
	}
}

func BenchmarkFreeModeAtomicRegisterRead(b *testing.B) {
	r := NewAtomicRegister("ar", 42)
	p := sched.FreeProc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Read(p)
	}
}

func BenchmarkFreeModeAtomicRegisterWrite(b *testing.B) {
	r := NewAtomicRegister("ar", 0)
	p := sched.FreeProc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Write(p, i)
	}
}

func BenchmarkFreeModeCounterFetchAdd(b *testing.B) {
	c := NewCounter("c")
	p := sched.FreeProc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.FetchAdd(p, 1)
	}
}

func BenchmarkFreeModeOncePropose(b *testing.B) {
	o := NewOnce[int]("once")
	p := sched.FreeProc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = o.Propose(p, i)
	}
}

func BenchmarkFreeModeCASLoop(b *testing.B) {
	c := NewCAS("cas", int64(0))
	p := sched.FreeProc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur := c.Load(p)
		c.CompareAndSwap(p, cur, cur+1)
	}
}

func BenchmarkFreeModeRegisterReadParallel(b *testing.B) {
	r := NewRegister("r", 42)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := sched.FreeProc(0)
		for pb.Next() {
			_ = r.Read(p)
		}
	})
}

func BenchmarkFreeModeAtomicRegisterReadParallel(b *testing.B) {
	r := NewAtomicRegister("ar", 42)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := sched.FreeProc(0)
		for pb.Next() {
			_ = r.Read(p)
		}
	})
}

func BenchmarkFreeModeCounterFetchAddParallel(b *testing.B) {
	c := NewCounter("c")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := sched.FreeProc(0)
		for pb.Next() {
			_ = c.FetchAdd(p, 1)
		}
	})
}

// TestFreePrimitivesZeroAllocs pins the free-mode fast path the benchmarks
// above measure: on a sched.FreeProc handle an atomic-register write and
// read, a fetch-add, a propose and a load-then-CAS allocate nothing.
// Register's pin is TestRegisterFreeModeZeroAllocs in internal/sched.
func TestFreePrimitivesZeroAllocs(t *testing.T) {
	p := sched.FreeProc(0)
	ar := NewAtomicRegister("ar", 0)
	c := NewCounter("c")
	o := NewOnce[int]("once")
	cas := NewCAS("cas", int64(0))
	i := 0
	cases := []struct {
		name string
		fn   func()
	}{
		{"atomic-register", func() { i++; ar.Write(p, i); _ = ar.Read(p) }},
		{"counter-fetchadd", func() { _ = c.FetchAdd(p, 1) }},
		{"once-propose", func() { i++; _ = o.Propose(p, i) }},
		{"cas-loop", func() { cur := cas.Load(p); cas.CompareAndSwap(p, cur, cur+1) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, avg)
		}
	}
}
