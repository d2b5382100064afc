package fault

import (
	"fmt"
	"sync"
	"testing"
)

func TestNilSetIsDisarmed(t *testing.T) {
	var s *Set
	if got := s.Fire("anything"); got != (Outcome{}) {
		t.Fatalf("nil set Fire = %+v, want zero", got)
	}
	if s.Stats() != nil || s.Points() != nil {
		t.Fatal("nil set must report nil stats and points")
	}
}

func TestZeroSetIsDisarmed(t *testing.T) {
	s := NewSet()
	if got := s.Fire("worker.preCommit"); got != (Outcome{}) {
		t.Fatalf("empty set Fire = %+v, want zero", got)
	}
	if s.Stats() != nil {
		t.Fatal("empty set must report nil stats")
	}
}

func TestCrashAfterCount(t *testing.T) {
	s := NewSet()
	s.Arm("p", Rule{Action: Crash, After: 2, Count: 3})
	var crashes int
	for i := 0; i < 10; i++ {
		o := s.Fire("p")
		if o.Crash {
			crashes++
			if i < 2 || i >= 5 {
				t.Fatalf("firing %d crashed; want crashes only on firings 2..4", i)
			}
		}
		if o.Delay != 0 || o.Drop {
			t.Fatalf("firing %d = %+v, want pure crash outcomes", i, o)
		}
	}
	if crashes != 3 {
		t.Fatalf("crashes = %d, want 3", crashes)
	}
	st := s.Stats()["p"]
	if st.Fires != 10 || st.Acted != 3 {
		t.Fatalf("stats = %+v, want fires=10 acted=3", st)
	}
}

func TestUnlimitedCount(t *testing.T) {
	s := NewSet()
	s.Arm("p", Rule{Action: Drop, Count: -1})
	for i := 0; i < 100; i++ {
		if !s.Fire("p").Drop {
			t.Fatalf("firing %d did not drop under unlimited rule", i)
		}
	}
}

func TestZeroRuleDefaults(t *testing.T) {
	s := NewSet()
	s.Arm("p", Rule{}) // zero rule: crash the first firing only
	if !s.Fire("p").Crash {
		t.Fatal("zero rule must crash the first firing")
	}
	if s.Fire("p").Crash {
		t.Fatal("zero rule must act exactly once (Count defaults to 1)")
	}
}

func TestDelayOutcome(t *testing.T) {
	s := NewSet()
	s.Arm("q", Rule{Action: Delay, Delay: 42, Count: 2})
	if o := s.Fire("q"); o.Delay != 42 || o.Crash || o.Drop {
		t.Fatalf("delay outcome = %+v", o)
	}
}

func TestDisarmAndRearm(t *testing.T) {
	s := NewSet()
	s.Arm("a", Rule{Action: Drop, Count: -1})
	s.Arm("b", Rule{Action: Crash, Count: -1})
	s.Disarm("a")
	s.Disarm("never-armed")
	if s.Fire("a").Drop {
		t.Fatal("disarmed point still acting")
	}
	if !s.Fire("b").Crash {
		t.Fatal("sibling point lost by disarm")
	}
	if got := s.Points(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("points = %v, want [b]", got)
	}
	// Re-arming resets counters.
	s.Arm("b", Rule{Action: Crash, After: 1, Count: 1})
	if s.Fire("b").Crash {
		t.Fatal("re-armed point did not reset its firing counter")
	}
	if !s.Fire("b").Crash {
		t.Fatal("re-armed rule not applied on its After boundary")
	}
}

func TestActionRoundTrip(t *testing.T) {
	for _, a := range []Action{Crash, Delay, Drop} {
		got, err := ActionOf(a.String())
		if err != nil || got != a {
			t.Errorf("ActionOf(%s) = (%v, %v)", a, got, err)
		}
	}
	if _, err := ActionOf("nope"); err == nil {
		t.Error("ActionOf(nope) should error")
	}
	if Action(9).String() == "" {
		t.Error("unknown action must still format")
	}
}

// TestConcurrentFire hammers Fire while a driver arms and disarms, under
// -race: the copy-on-write table must never tear, and exactly Count
// firings act per armed generation.
func TestConcurrentFire(t *testing.T) {
	s := NewSet()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Fire("hot")
				s.Fire("cold")
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s.Arm("hot", Rule{Action: Drop, Count: int64(i % 7)})
		s.Disarm("hot")
	}
	close(stop)
	wg.Wait()
}

// TestDeterministicSequence: with a fixed rule, the outcome sequence is a
// pure function of the firing index — the property virtual-runtime replay
// relies on.
func TestDeterministicSequence(t *testing.T) {
	seq := func() string {
		s := NewSet()
		s.Arm("p", Rule{Action: Crash, After: 3, Count: 2})
		out := ""
		for i := 0; i < 8; i++ {
			if s.Fire("p").Crash {
				out += fmt.Sprintf("C%d", i)
			}
		}
		return out
	}
	a, b := seq(), seq()
	if a != b || a != "C3C4" {
		t.Fatalf("sequences %q vs %q, want C3C4 twice", a, b)
	}
}

func BenchmarkFireNil(b *testing.B) {
	var s *Set
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Fire("worker.preCommit")
	}
}

func BenchmarkFireDisarmed(b *testing.B) {
	s := NewSet()
	s.Arm("other.point", Rule{Action: Drop, Count: -1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Fire("worker.preCommit")
	}
}

func BenchmarkFireArmedPassthrough(b *testing.B) {
	s := NewSet()
	s.Arm("worker.preCommit", Rule{Action: Drop, After: 1 << 62})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Fire("worker.preCommit")
	}
}

// TestFireZeroAllocs pins what a fault point costs the serving path:
// firing through a nil set, at a point nothing armed, and at an armed point
// whose rule lets the firing pass allocates nothing.
func TestFireZeroAllocs(t *testing.T) {
	disarmed := NewSet()
	disarmed.Arm("other.point", Rule{Action: Drop, Count: -1})
	armed := NewSet()
	armed.Arm("worker.preCommit", Rule{Action: Drop, After: 1 << 62})
	cases := []struct {
		name string
		set  *Set
	}{{"nil", nil}, {"disarmed", disarmed}, {"armed-passthrough", armed}}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(1000, func() { tc.set.Fire("worker.preCommit") }); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, avg)
		}
	}
}
