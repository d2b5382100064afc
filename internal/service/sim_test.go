package service

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// brokenServiceScenario is the raw (non-inverted) injected-bug fixture: the
// canary topology and workload with the lost-update bug injected, but with
// the standard safety oracle, so the exhaustive checker's violations
// surface as sweep failures with repro tokens.
func brokenServiceScenario() sim.Scenario {
	sc := vscenario{
		name: "test/service-broken", budget: 8192, mode: safetyOnly, rawCanary: true,
		topo: topology{subs: 1, shards: 1, workers: 1, queue: 4, batch: 2},
		wl:   Workload{Keys: []string{"poison", "clean"}, HotFrac: 0.7, CASFrac: 0, Ops: 6, MaxCall: 1},
	}
	return sc.scenario()
}

func init() {
	sim.Register(brokenServiceScenario())
}

func serviceRegistered(t *testing.T) []sim.Scenario {
	t.Helper()
	var out []sim.Scenario
	for _, s := range sim.All() {
		if strings.HasPrefix(s.Name, "service:") {
			out = append(out, s)
		}
	}
	if len(out) < 6 {
		t.Fatalf("only %d service scenarios registered, want >= 6", len(out))
	}
	return out
}

// TestServiceSweepClean is the in-tree version of the CI service-sim gate:
// every registered service scenario (including the crash, stall and drain
// fault plans, and the inverted canary) must pass its oracles — exhaustive,
// gap-free linearizability on every run — across a seed budget.
func TestServiceSweepClean(t *testing.T) {
	seeds := uint64(250)
	if testing.Short() {
		seeds = 40
	}
	scenarios := serviceRegistered(t)
	rep := sim.Sweep(scenarios, sim.Options{Seeds: seeds, Workers: 4})
	if !rep.OK() {
		t.Fatalf("service sweep found violations:\n%s", rep.Summary())
	}
	if rep.Runs != int64(seeds)*int64(len(scenarios)) {
		t.Fatalf("ran %d runs, want %d", rep.Runs, int64(seeds)*int64(len(scenarios)))
	}
}

// normReport zeroes the wall-clock fields of a report and renders the rest,
// the bit-identity domain of the determinism property.
func normReport(t *testing.T, rep sim.Report) string {
	t.Helper()
	rep.ElapsedNs, rep.RunsPerS, rep.Workers = 0, 0, 0
	for i := range rep.Scenarios {
		rep.Scenarios[i].LatencyNs = sim.Histogram{}
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestServiceSweepDeterministicAcrossWorkers: a virtual-runtime sweep
// report is bit-identical (minus wall-clock fields) across worker counts
// {1, 4} and across re-runs of the same seeds — the whole serving tier,
// faults included, is deterministic in (scenario, seed).
func TestServiceSweepDeterministicAcrossWorkers(t *testing.T) {
	seeds := uint64(80)
	if testing.Short() {
		seeds = 20
	}
	scenarios := serviceRegistered(t)
	w1 := normReport(t, sim.Sweep(scenarios, sim.Options{Seeds: seeds, Workers: 1}))
	w4 := normReport(t, sim.Sweep(scenarios, sim.Options{Seeds: seeds, Workers: 4}))
	if w1 != w4 {
		t.Fatalf("sweep reports differ across worker counts:\n%s\n%s", w1, w4)
	}
	again := normReport(t, sim.Sweep(scenarios, sim.Options{Seeds: seeds, Workers: 4}))
	if w4 != again {
		t.Fatalf("sweep reports differ across re-runs of the same seeds:\n%s\n%s", w4, again)
	}
}

// brokenSweep runs (once per test binary) the 200-seed sweep of the raw
// injected-bug scenario that both the detection and the replay tests
// consume — re-running it would only re-prove the determinism asserted
// elsewhere.
var brokenSweep = struct {
	once sync.Once
	rep  sim.Report
}{}

func brokenSweepReport(t *testing.T) sim.Report {
	t.Helper()
	s, ok := sim.Find("test/service-broken")
	if !ok {
		t.Fatal("test/service-broken not registered")
	}
	brokenSweep.once.Do(func() {
		brokenSweep.rep = sim.Sweep([]sim.Scenario{s},
			sim.Options{Seeds: 200, Workers: 4, MaxFailures: 1 << 20})
	})
	return brokenSweep.rep
}

// TestServiceCanaryDetectsInjectedBug: the raw injected-bug scenario must
// fail for many seeds — the exhaustive checker actually catches a serving
// tier that acknowledges writes and drops them — and each failure must
// carry a usable repro token.
func TestServiceCanaryDetectsInjectedBug(t *testing.T) {
	rep := brokenSweepReport(t)
	if rep.Failures == 0 {
		t.Fatal("exhaustive checker missed the injected lost-update bug on every seed")
	}
	// The bug fires whenever the script writes then reads the poisoned key;
	// that should be the common case, not a fluke.
	if rep.Failures < int64(rep.Runs)/4 {
		t.Fatalf("bug detected on only %d of %d seeds", rep.Failures, rep.Runs)
	}
	sample := rep.Scenarios[0].FailureSamples[0]
	if sample.Token == "" || len(sample.Violations) == 0 {
		t.Fatalf("failure sample incomplete: %+v", sample)
	}
	if !strings.Contains(strings.Join(sample.Violations, "\n"), "linearizability") {
		t.Fatalf("violations do not name linearizability: %v", sample.Violations)
	}
}

// TestServiceReplayTokenBitIdentical: replaying a failing token reproduces
// the exact failing interleaving — identical granted-step trace, schedule,
// step counts, statuses and violations, run after run.
func TestServiceReplayTokenBitIdentical(t *testing.T) {
	rep := brokenSweepReport(t)
	if len(rep.Scenarios[0].FailureSamples) == 0 {
		t.Fatal("no failures to replay")
	}
	limit := len(rep.Scenarios[0].FailureSamples)
	if limit > 10 {
		limit = 10
	}
	for _, f := range rep.Scenarios[0].FailureSamples[:limit] {
		a, err := sim.Replay(f.Token)
		if err != nil {
			t.Fatalf("replay %s: %v", f.Token, err)
		}
		if a.OK() {
			t.Fatalf("replay of failing token %s passed", f.Token)
		}
		if len(a.Trace) == 0 {
			t.Fatalf("replay %s captured no trace", f.Token)
		}
		if !reflect.DeepEqual(a.Violations, f.Violations) {
			t.Fatalf("replay %s violations differ from sweep:\n  %v\n  %v", f.Token, a.Violations, f.Violations)
		}
		b, _ := sim.Replay(f.Token)
		a.ElapsedNs, b.ElapsedNs = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("replay %s is not bit-identical across runs:\n  %+v\n  %+v", f.Token, a, b)
		}
	}
}

// TestServiceScenarioFaultsExercised: across a seed range, the fault-plan
// scenarios actually produce the faults they advertise (crashed workers,
// starved procs, rejected ops under drain) — guarding against generators
// drifting into vacuous coverage.
func TestServiceScenarioFaultsExercised(t *testing.T) {
	find := func(name string) sim.Scenario {
		s, ok := sim.Find(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		return s
	}
	var crashed, starved int
	crash, stall := find("service:crash"), find("service:stall")
	for seed := uint64(0); seed < 50; seed++ {
		crashed += crash.Run(seed, false).Crashed
		starved += stall.Run(seed, false).Starved
	}
	if crashed == 0 {
		t.Error("service:crash never crashed a worker in 50 seeds")
	}
	if starved == 0 {
		t.Error("service:stall never starved a proc in 50 seeds")
	}
	// The inverted canary's premise — a client actually observing the
	// injected lost update — must hold on a healthy share of seeds, or the
	// registered canary would be vacuous.
	raw, _ := sim.Find("test/service-broken")
	bitten := 0
	for seed := uint64(0); seed < 50; seed++ {
		if !raw.Run(seed, false).OK() {
			bitten++
		}
	}
	if bitten < 10 {
		t.Errorf("injected bug observed on only %d of 50 seeds", bitten)
	}
	// The fault-injection scenarios must actually kill worker incarnations
	// (crashed procs in the final accounting) — otherwise supervision,
	// recovery and retry are never exercised and their oracles are vacuous.
	for _, name := range []string{"service:recover", "service:crash-loop", "service:timeout-retry"} {
		sc := find(name)
		killed := 0
		for seed := uint64(0); seed < 50; seed++ {
			killed += sc.Run(seed, false).Crashed
		}
		if killed == 0 {
			t.Errorf("%s never crashed a worker incarnation in 50 seeds", name)
		}
	}
}

// dedupProbe runs one supervised virtual store with post-commit crashes and
// a deadline-bounded retrying client, returning the ground-truth
// double-apply count and the exhaustive checker's verdict. Proc layout:
// 0 client, 1 driver, 2 auditor, 3 worker, 4 supervisor, 5-7 spare seats.
func dedupProbe(seed uint64, noDedup bool) (doubles int64, violations []string) {
	r := sched.NewRun(8, sched.NewRandom(seed))
	vr := NewVirtualRuntime(r, 2)
	fs := fault.NewSet()
	fs.Arm(FaultWorkerPostCommit, fault.Rule{Action: fault.Crash, Count: 2})
	store := NewVirtual(Config{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 4, MaxBatch: 2,
		Audit:     AuditConfig{WindowOps: 4},
		Supervise: SuperviseConfig{Enabled: true, MaxRestarts: 3, JitterSeed: seed | 1, Spares: 3},
		Faults:    fs,
	}, vr)
	store.debugNoDedup = noDedup
	finished := false
	r.Spawn(0, func(p *sched.Proc) {
		defer func() { finished = true }()
		for i := 0; i < 6; i++ {
			op := Op{Kind: OpPut, Key: "k", Val: fmt.Sprintf("v%d", i), ID: uint64(i + 1)}
			for try := 0; try < 4; try++ {
				if _, err := store.DoTimeoutOn(p, op, 24); err != ErrDeadline {
					break
				}
			}
		}
	})
	r.Spawn(1, func(p *sched.Proc) {
		p.Park(func() bool { return finished })
		_ = store.CloseOn(p)
	})
	r.Execute(1 << 15)
	return store.debugDoubles.Load(), vr.CheckHistory()
}

// TestDedupMustDetect is the direct must-detect control for op-ID
// deduplication, with ground truth on both sides: with the dedup
// short-circuit disabled, every run where the state machine really
// double-applied a retry must be flagged by the exhaustive checker's op-ID
// clause; with dedup on, the identical seeds must stay violation-free. A
// vacuous pass (no seed ever double-applies) fails too.
func TestDedupMustDetect(t *testing.T) {
	sawDouble := false
	for seed := uint64(0); seed < 40; seed++ {
		doubles, violations := dedupProbe(seed, true)
		if doubles > 0 {
			sawDouble = true
			flagged := false
			for _, v := range violations {
				if strings.Contains(v, "committed more than once") {
					flagged = true
				}
			}
			if !flagged {
				t.Fatalf("seed %d: %d double-applies but checker reported %v", seed, doubles, violations)
			}
		}
		if _, violations := dedupProbe(seed, false); len(violations) != 0 {
			t.Fatalf("seed %d: dedup enabled but checker reported %v", seed, violations)
		}
	}
	if !sawDouble {
		t.Error("no seed produced a double-apply; the must-detect control is vacuous")
	}
}
