package sim

import (
	"math/rand/v2"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 8, 9} {
		h.Observe(v)
	}
	// 0 and 1 -> bucket 0; 2 -> bucket 1; 3,4 -> bucket 2; 8,9 -> buckets 3,4.
	want := []int64{2, 1, 2, 1, 1}
	if len(h.Buckets) != len(want) {
		t.Fatalf("buckets %v, want %v", h.Buckets, want)
	}
	for i, w := range want {
		if h.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, h.Buckets[i], w, h.Buckets)
		}
	}
	if h.Count != 7 || h.Sum != 27 || h.Max != 9 {
		t.Fatalf("count=%d sum=%d max=%d, want 7/27/9", h.Count, h.Sum, h.Max)
	}
	if got := h.Mean(); got < 3.85 || got > 3.86 {
		t.Fatalf("mean %v, want 27/7", got)
	}
	var empty Histogram
	if empty.Mean() != 0 {
		t.Fatalf("empty mean %v, want 0", empty.Mean())
	}
	empty.Observe(-5) // clamped to 0
	if empty.Buckets[0] != 1 || empty.Sum != 0 {
		t.Fatalf("negative observation not clamped: %+v", empty)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(1)
	b.Observe(100)
	b.Observe(2)
	a.Merge(b)
	if a.Count != 3 || a.Sum != 103 || a.Max != 100 {
		t.Fatalf("merged count=%d sum=%d max=%d", a.Count, a.Sum, a.Max)
	}
}

func TestParseToken(t *testing.T) {
	name, seed, err := ParseToken("group/asym:1234")
	if err != nil || name != "group/asym" || seed != 1234 {
		t.Fatalf("got %q %d %v", name, seed, err)
	}
	if _, _, err := ParseToken("no-colon"); err == nil {
		t.Fatal("want error for token without colon")
	}
	if _, _, err := ParseToken("scenario:notanumber"); err == nil {
		t.Fatal("want error for malformed seed")
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, s Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("empty", Scenario{})
	run := func(uint64, bool) Outcome { return Outcome{} }
	Register(Scenario{Name: "test/register-dup", Subject: "sim", Run: run})
	mustPanic("dup", Scenario{Name: "test/register-dup", Subject: "sim", Run: run})
	if _, ok := Find("test/register-dup"); !ok {
		t.Fatal("registered scenario not found")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) == 0 {
		t.Fatalf("Select(all): %d scenarios, err %v", len(all), err)
	}
	two, err := Select("consensus/waitfree, consensus/gated")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select(two): %d scenarios, err %v", len(two), err)
	}
	if _, err := Select("no/such/scenario"); err == nil {
		t.Fatal("want error for unknown scenario")
	}
	if _, err := Select(","); err == nil {
		t.Fatal("want error for empty selection")
	}
}

func TestDefaultGeneratorDeterministicAndCovering(t *testing.T) {
	const (
		n      = 4
		budget = int64(1000)
	)
	seen := map[string]bool{}
	for seed := uint64(0); seed < 200; seed++ {
		mk := func() Schedule {
			rng := rand.New(rand.NewPCG(42, seed))
			return DefaultGenerator(n, budget, rng)
		}
		a, b := mk(), mk()
		if a.Desc != b.Desc {
			t.Fatalf("seed %d: descriptions differ: %q vs %q", seed, a.Desc, b.Desc)
		}
		// The minted policies must behave identically on a fresh view.
		if a.SoloID != b.SoloID || a.SoloAfter != b.SoloAfter || a.FairBase != b.FairBase {
			t.Fatalf("seed %d: schedule metadata differs", seed)
		}
		switch {
		case strings.HasPrefix(a.Desc, "round-robin"):
			seen["rr"] = true
		case strings.HasPrefix(a.Desc, "random"):
			seen["random"] = true
		case strings.HasPrefix(a.Desc, "subset"):
			seen["subset"] = true
		case strings.HasPrefix(a.Desc, "cycle"):
			seen["cycle"] = true
		case strings.HasPrefix(a.Desc, "priority-starver"):
			seen["starver"] = true
		}
		if a.SoloID >= 0 {
			seen["solo"] = true
			if a.SoloAfter > budget/2 {
				t.Fatalf("seed %d: solo prefix %d exceeds half the budget", seed, a.SoloAfter)
			}
		}
		if len(a.CrashPlan) > 0 {
			seen["crash"] = true
			if len(a.CrashPlan) >= n {
				t.Fatalf("seed %d: %d victims, want < n", seed, len(a.CrashPlan))
			}
		}
		for _, id := range a.Omitted {
			if !a.Omits(id) {
				t.Fatalf("seed %d: Omits(%d) false for omitted id", seed, id)
			}
		}
		if a.Omits(n) {
			t.Fatalf("seed %d: Omits(%d) true for non-omitted id", seed, n)
		}
		if a.Fair() && (len(a.CrashPlan) > 0 || len(a.Omitted) > 0 || a.SoloID >= 0 || !a.FairBase) {
			t.Fatalf("seed %d: Fair() inconsistent: %+v", seed, a)
		}
		if a.ContentionOnly() && (len(a.Omitted) > 0 || a.SoloID >= 0) {
			t.Fatalf("seed %d: ContentionOnly() inconsistent: %+v", seed, a)
		}
	}
	for _, k := range []string{"rr", "random", "subset", "cycle", "starver", "solo", "crash"} {
		if !seen[k] {
			t.Errorf("200 seeds never produced a %s schedule", k)
		}
	}
}

// TestFairGenDeterministicAndCovering: the shared fair draw is a function of
// the rng alone, every schedule it yields is fair, and all three bases occur.
// Service and cluster replay tokens depend on this draw.
func TestFairGenDeterministicAndCovering(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		a := FairGen(4, 0, rand.New(rand.NewPCG(42, seed)))
		b := FairGen(4, 0, rand.New(rand.NewPCG(42, seed)))
		if a.Desc != b.Desc || !a.Fair() || a.Source.New(seed) == nil {
			t.Fatalf("seed %d: %q vs %q, fair %v", seed, a.Desc, b.Desc, a.Fair())
		}
		seen[strings.SplitN(a.Desc, "(", 2)[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("bases drawn: %v, want round-robin, random and cycle", seen)
	}
}
