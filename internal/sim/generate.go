package sim

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/sched"
)

// Schedule is one generated adversary: a source of fresh scheduling policies
// plus the structural metadata oracles need to know which termination
// guarantees apply to the run. The metadata describes the *plan*; oracles
// combine it with the actual final statuses (a planned crash does not fire
// if the victim finishes first).
type Schedule struct {
	// Desc is a human-readable description, quoted in failure reports.
	Desc string
	// Source mints the run's policy; fresh per (re-)execution because
	// policies are stateful.
	Source sched.PolicySource
	// CrashPlan maps victim ids to the step counts at which CrashAt fires.
	CrashPlan map[int]int64
	// Omitted lists processes the base policy never grants (the complement
	// of a Subset or Cycle membership).
	Omitted []int
	// SoloID, when >= 0, is granted an exclusive tail after SoloAfter total
	// steps — the "eventually runs in isolation" premise of
	// obstruction-freedom. The generator keeps SoloAfter at or below half
	// the budget so the tail is always long enough to matter.
	SoloID    int
	SoloAfter int64
	// FairBase reports that the base policy (before crash/solo wrappers)
	// grants every runnable process infinitely often.
	FairBase bool
	// Tag is an optional generator-defined label custom oracles switch on
	// (e.g. the livelock scenario marks its periodic schedules).
	Tag string
}

// Fair reports whether the whole schedule is fair: every process keeps
// receiving steps and none is crashed — the premise of fault-freedom.
func (s Schedule) Fair() bool {
	return s.FairBase && len(s.CrashPlan) == 0 && len(s.Omitted) == 0 && s.SoloID < 0
}

// ContentionOnly reports that no process is ever denied steps by the policy
// itself (crashes may still remove processes): the base is fair, nobody is
// omitted and there is no solo tail. Under such schedules every non-crashed
// process "keeps taking steps" in the sense of the paper's progress
// conditions.
func (s Schedule) ContentionOnly() bool {
	return s.FairBase && len(s.Omitted) == 0 && s.SoloID < 0
}

// Omits reports whether the base policy never grants id.
func (s Schedule) Omits(id int) bool {
	for _, o := range s.Omitted {
		if o == id {
			return true
		}
	}
	return false
}

// Generator produces a deterministic Schedule for an n-process run with the
// given step budget, consuming randomness only from rng.
type Generator func(n int, budget int64, rng *rand.Rand) Schedule

// DefaultGenerator is the standard adversary mix used by most scenarios:
//
//   - base policy: round-robin (perfect contention), seeded random, a random
//     Subset (starving the complement), a random Cycle pattern, or the
//     priority starver;
//   - with probability 1/3, an eventual-solo tail for a random process after
//     a random prefix of at most half the budget (the obstruction-freedom
//     premise);
//   - with probability 1/2, crash injection: up to n-1 victims, each crashed
//     after a small random number of its own steps (0 crashes it before its
//     first step — the "participates but never shows up" failure pattern).
func DefaultGenerator(n int, budget int64, rng *rand.Rand) Schedule {
	var s Schedule
	s.SoloID = -1

	var mk func() sched.Policy
	switch pick := rng.IntN(10); {
	case pick < 3:
		s.Desc, s.FairBase = "round-robin", true
		mk = func() sched.Policy { return &sched.RoundRobin{} }
	case pick < 6:
		seed := rng.Uint64()
		s.Desc, s.FairBase = fmt.Sprintf("random(%d)", seed), true
		mk = func() sched.Policy { return sched.NewRandom(seed) }
	case pick < 8:
		ids := randomSubset(n, rng)
		s.Omitted = complement(n, ids)
		s.FairBase = len(s.Omitted) == 0
		s.Desc = fmt.Sprintf("subset(%v)", ids)
		mk = func() sched.Policy { return &sched.Subset{IDs: ids} }
	case pick < 9:
		seq := randomPattern(n, rng)
		s.Omitted = complement(n, seq)
		s.FairBase = len(s.Omitted) == 0
		s.Desc = fmt.Sprintf("cycle(%v)", seq)
		mk = func() sched.Policy { return &sched.Cycle{Seq: seq} }
	default:
		// The starver favours the highest runnable id; whether that starves
		// anyone depends on the subject, so it is not a fair base.
		s.Desc = "priority-starver"
		mk = func() sched.Policy { return sched.PriorityStarver{} }
	}

	if rng.IntN(3) == 0 {
		s.SoloID = rng.IntN(n)
		s.SoloAfter = rng.Int64N(budget/2 + 1)
		s.Desc += fmt.Sprintf("+solo(p%d@%d)", s.SoloID, s.SoloAfter)
		inner := mk
		id, after := s.SoloID, s.SoloAfter
		mk = func() sched.Policy { return &sched.SoloAfter{Inner: inner(), After: after, ID: id} }
	}

	if rng.IntN(2) == 0 {
		victims := rng.IntN(n) + 1 // 1..n; capped to n-1 below
		if victims >= n {
			victims = n - 1
		}
		s.CrashPlan = map[int]int64{}
		for len(s.CrashPlan) < victims {
			s.CrashPlan[rng.IntN(n)] = rng.Int64N(64)
		}
		s.Desc += "+crash{" + crashDesc(s.CrashPlan) + "}"
		inner := mk
		plan := s.CrashPlan
		mk = func() sched.Policy { return &sched.CrashAt{Inner: inner(), At: plan} }
	}

	s.Source = SourceOf(mk)
	return s
}

// DrawFair draws a fair base policy — round-robin, seeded random, or a
// cyclic random permutation of all n procs — and returns the schedule
// skeleton plus the policy constructor fault wrappers layer over. The
// service and cluster scenario families share this one draw, so their
// replay tokens depend on one order of RNG calls.
func DrawFair(n int, rng *rand.Rand) (Schedule, func() sched.Policy) {
	s := Schedule{SoloID: -1, FairBase: true}
	var mk func() sched.Policy
	switch rng.IntN(3) {
	case 0:
		s.Desc = "round-robin"
		mk = func() sched.Policy { return &sched.RoundRobin{} }
	case 1:
		seed := rng.Uint64()
		s.Desc = fmt.Sprintf("random(%d)", seed)
		mk = func() sched.Policy { return sched.NewRandom(seed) }
	default:
		perm := rng.Perm(n)
		s.Desc = fmt.Sprintf("cycle(%v)", perm)
		mk = func() sched.Policy { return &sched.Cycle{Seq: perm} }
	}
	return s, mk
}

// FairGen generates fault-free fair schedules.
func FairGen(n int, _ int64, rng *rand.Rand) Schedule {
	s, mk := DrawFair(n, rng)
	s.Source = SourceOf(mk)
	return s
}

// SourceOf mints a fresh policy from mk for every (re-)execution.
func SourceOf(mk func() sched.Policy) sched.PolicySource {
	return sched.PolicySourceFunc(func(uint64) sched.Policy { return mk() })
}

// randomSubset returns a non-empty random subset of 0..n-1, in id order.
func randomSubset(n int, rng *rand.Rand) []int {
	var ids []int
	for id := 0; id < n; id++ {
		if rng.IntN(2) == 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		ids = []int{rng.IntN(n)}
	}
	return ids
}

// randomPattern returns a random grant pattern over 0..n-1 of length 2..3n.
func randomPattern(n int, rng *rand.Rand) []int {
	seq := make([]int, 2+rng.IntN(3*n-1))
	for i := range seq {
		seq[i] = rng.IntN(n)
	}
	return seq
}

// complement returns the ids of 0..n-1 absent from present, in id order.
func complement(n int, present []int) []int {
	in := make([]bool, n)
	for _, id := range present {
		if id >= 0 && id < n {
			in[id] = true
		}
	}
	var out []int
	for id := 0; id < n; id++ {
		if !in[id] {
			out = append(out, id)
		}
	}
	return out
}

// crashDesc formats a crash plan deterministically (sorted by victim).
func crashDesc(plan map[int]int64) string {
	victims := make([]int, 0, len(plan))
	for id := range plan {
		victims = append(victims, id)
	}
	sort.Ints(victims)
	parts := make([]string, 0, len(victims))
	for _, id := range victims {
		parts = append(parts, fmt.Sprintf("p%d@%d", id, plan[id]))
	}
	return strings.Join(parts, ",")
}
