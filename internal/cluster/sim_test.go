package cluster

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
	"repro/internal/sim"
)

// brokenClusterScenario is the raw (non-inverted) injected-bug fixture: the
// stale-canary topology and crash plan with the skip-apply bug injected,
// but with the standard oracle, so the checker's violations surface as
// sweep failures with repro tokens.
func brokenClusterScenario() sim.Scenario {
	three := []NodeID{1, 2, 3}
	sc := cscenario{
		name: "test/cluster-broken", budget: 131072, mode: cSafety,
		crashOwner: true, bug: bugSkipApply, raw: true,
		topo: ctopo{subs: 1, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 1},
		wl:   service.Workload{Keys: []string{"k1", "k2"}, HotFrac: 0.5, CASFrac: 0, Ops: 10, MaxCall: 1},
	}
	return sc.scenario()
}

// brokenBatchScenario is the raw fixture for the pipelined-commit bug: an
// owner that counts any follower ack as acking its full window (entries
// answer clients before a quorum holds them), under loss and its own
// crash, with the standard oracle so the checker's violations surface.
func brokenBatchScenario() sim.Scenario {
	three := []NodeID{1, 2, 3}
	sc := cscenario{
		name: "test/cluster-batch-broken", budget: 131072, mode: cSafety,
		crashOwner: true, bug: bugAckFullWindow, raw: true, plan: batchLossPlan, inflight: 4,
		topo: ctopo{subs: 1, nodes: 4, stores: three, fronts: []NodeID{0}, shards: 1},
		wl:   service.Workload{Keys: []string{"k1", "k2"}, HotFrac: 0.5, CASFrac: 0, Ops: 12, MaxCall: 2},
	}
	return sc.scenario()
}

// brokenVoteScenario is the raw fixture for the broken vote promise: the
// vote-canary topology, workload and fault plan with the standard oracle.
func brokenVoteScenario() sim.Scenario {
	sc := cscenario{
		name: "test/cluster-vote-broken", budget: 131072, mode: cSafety,
		bug: bugGrantNoPromise, raw: true, plan: flapPlan,
		topo: ctopo{subs: 1, nodes: 4, stores: []NodeID{1, 2, 3}, fronts: []NodeID{0}, shards: 1},
		wl:   service.Workload{Keys: []string{"k1", "k2"}, HotFrac: 0.5, CASFrac: 0, Ops: 12, MaxCall: 1},
	}
	return sc.scenario()
}

func init() {
	sim.Register(brokenClusterScenario())
	sim.Register(brokenBatchScenario())
	sim.Register(brokenVoteScenario())
}

func clusterRegistered(t *testing.T) []sim.Scenario {
	t.Helper()
	var out []sim.Scenario
	for _, s := range sim.All() {
		if strings.HasPrefix(s.Name, "cluster:") {
			out = append(out, s)
		}
	}
	if len(out) < 10 {
		t.Fatalf("only %d cluster scenarios registered, want >= 10", len(out))
	}
	return out
}

// TestClusterSweepClean is the in-tree version of the CI cluster-sim gate:
// every registered cluster scenario (fault-free, sharded, owner crash,
// partition, lossy network, handoff under loss, and the inverted canary)
// must pass its oracles across a seed budget.
func TestClusterSweepClean(t *testing.T) {
	seeds := uint64(200)
	if testing.Short() {
		seeds = 40
	}
	scenarios := clusterRegistered(t)
	rep := sim.Sweep(scenarios, sim.Options{Seeds: seeds, Workers: 4})
	if !rep.OK() {
		t.Fatalf("cluster sweep found violations:\n%s", rep.Summary())
	}
	if rep.Runs != int64(seeds)*int64(len(scenarios)) {
		t.Fatalf("ran %d runs, want %d", rep.Runs, int64(seeds)*int64(len(scenarios)))
	}
}

// normClusterReport zeroes the wall-clock fields of a report and renders
// the rest — the bit-identity domain of the determinism property.
func normClusterReport(t *testing.T, rep sim.Report) string {
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

// TestClusterSweepDeterministicAcrossWorkers: a cluster sweep report — the
// whole multi-node deployment with its virtual network faults — is
// bit-identical (minus wall-clock fields) across worker counts and re-runs.
func TestClusterSweepDeterministicAcrossWorkers(t *testing.T) {
	seeds := uint64(60)
	if testing.Short() {
		seeds = 15
	}
	scenarios := clusterRegistered(t)
	w1 := normClusterReport(t, sim.Sweep(scenarios, sim.Options{Seeds: seeds, Workers: 1}))
	w4 := normClusterReport(t, sim.Sweep(scenarios, sim.Options{Seeds: seeds, Workers: 4}))
	if w1 != w4 {
		t.Fatalf("sweep reports differ across worker counts:\n%s\n%s", w1, w4)
	}
	again := normClusterReport(t, sim.Sweep(scenarios, sim.Options{Seeds: seeds, Workers: 4}))
	if w4 != again {
		t.Fatalf("sweep reports differ across re-runs of the same seeds:\n%s\n%s", w4, again)
	}
}

// brokenClusterSweep caches (once per test binary) the sweep of the raw
// injected-bug scenario that the detection and replay tests share.
var brokenClusterSweep = struct {
	once sync.Once
	rep  sim.Report
}{}

func brokenClusterSweepReport(t *testing.T) sim.Report {
	t.Helper()
	s, ok := sim.Find("test/cluster-broken")
	if !ok {
		t.Fatal("test/cluster-broken not registered")
	}
	brokenClusterSweep.once.Do(func() {
		brokenClusterSweep.rep = sim.Sweep([]sim.Scenario{s},
			sim.Options{Seeds: 200, Workers: 4, MaxFailures: 1 << 20})
	})
	return brokenClusterSweep.rep
}

// TestClusterCanaryDetectsInjectedBug: the raw injected-bug scenario — a
// follower that acknowledges replicated entries without applying them, then
// wins the failover election — must fail on a healthy share of seeds, and
// each failure must carry a usable repro token.
func TestClusterCanaryDetectsInjectedBug(t *testing.T) {
	rep := brokenClusterSweepReport(t)
	if rep.Failures == 0 {
		t.Fatal("checker missed the injected stale-read-after-failover bug on every seed")
	}
	// The bug needs the crash to fire mid-load and a read to land after the
	// rigged failover; that must be a recurring outcome, not a fluke.
	if rep.Failures < int64(rep.Runs)/20 {
		t.Fatalf("bug detected on only %d of %d seeds", rep.Failures, rep.Runs)
	}
	sample := rep.Scenarios[0].FailureSamples[0]
	if sample.Token == "" || len(sample.Violations) == 0 {
		t.Fatalf("failure sample incomplete: %+v", sample)
	}
	t.Logf("stale-read-after-failover bug bit on %d of %d seeds", rep.Failures, rep.Runs)
}

// mustDetect sweeps one raw injected-bug fixture over 200 seeds and
// requires the checker to fail a healthy share of them — the bug's
// preconditions must recur across seeds, not be a fluke — each failure
// with a usable repro token.
func mustDetect(t *testing.T, fixture, bug string) {
	t.Helper()
	s, ok := sim.Find(fixture)
	if !ok {
		t.Fatalf("%s not registered", fixture)
	}
	rep := sim.Sweep([]sim.Scenario{s},
		sim.Options{Seeds: 200, Workers: 4, MaxFailures: 1 << 20})
	if rep.Failures < int64(rep.Runs)/20 || rep.Failures == 0 {
		t.Fatalf("%s detected on only %d of %d seeds", bug, rep.Failures, rep.Runs)
	}
	sample := rep.Scenarios[0].FailureSamples[0]
	if sample.Token == "" || len(sample.Violations) == 0 {
		t.Fatalf("failure sample incomplete: %+v", sample)
	}
	t.Logf("%s bit on %d of %d seeds", bug, rep.Failures, rep.Runs)
}

// TestClusterBatchCanaryDetectsInjectedBug: the raw pipelined-commit bug
// fixture — an owner answering clients out of window order, before a
// quorum holds their entries — must be caught under loss plus the owner's
// crash (it needs lost appends the crash prevents from being
// retransmitted).
func TestClusterBatchCanaryDetectsInjectedBug(t *testing.T) {
	mustDetect(t, "test/cluster-batch-broken", "out-of-window-order commit bug")
}

// TestClusterVoteCanaryDetectsInjectedBug: the raw broken-promise fixture —
// voters that keep acking the owner they voted out — must be caught under
// cuts that elect rivals of a live owner.
func TestClusterVoteCanaryDetectsInjectedBug(t *testing.T) {
	mustDetect(t, "test/cluster-vote-broken", "broken vote promise")
}

// TestClusterReplayTokenBitIdentical: replaying a failing cluster token
// reproduces the exact failing run — schedule, network faults, violations.
func TestClusterReplayTokenBitIdentical(t *testing.T) {
	rep := brokenClusterSweepReport(t)
	if len(rep.Scenarios[0].FailureSamples) == 0 {
		t.Fatal("no failures to replay")
	}
	limit := len(rep.Scenarios[0].FailureSamples)
	if limit > 5 {
		limit = 5
	}
	for _, f := range rep.Scenarios[0].FailureSamples[:limit] {
		a, err := sim.Replay(f.Token)
		if err != nil {
			t.Fatalf("replay %s: %v", f.Token, err)
		}
		if a.OK() {
			t.Fatalf("replay of failing token %s passed", f.Token)
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

// TestClusterFaultsExercised: the crash and fault scenarios actually
// produce what they advertise across a seed range — crashed owner loops,
// network loss, active partitions — guarding against generators drifting
// into vacuous coverage.
func TestClusterFaultsExercised(t *testing.T) {
	find := func(name string) sim.Scenario {
		s, ok := sim.Find(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		return s
	}
	crashed := 0
	oc := find("cluster:owner-crash")
	for seed := uint64(0); seed < 50; seed++ {
		crashed += oc.Run(seed, false).Crashed
	}
	if crashed == 0 {
		t.Error("cluster:owner-crash never crashed the owner's event loop in 50 seeds")
	}
	// The inverted canary's premise — a client actually observing a stale
	// read after the rigged failover — must hold on some seeds, or the
	// registered canary would be vacuous.
	raw, _ := sim.Find("test/cluster-broken")
	bitten := 0
	for seed := uint64(0); seed < 100; seed++ {
		if !raw.Run(seed, false).OK() {
			bitten++
		}
	}
	if bitten == 0 {
		t.Error("injected stale-read bug never observed in 100 seeds")
	}
	// The network fault plans must actually drop, duplicate and cut
	// messages during the runs they shape — and every drop must be
	// accounted for by the sending node's cluster_frames_dropped_total
	// counters, or the new metric family is a silent no-op.
	//
	// The nodes run production's log truncation: some replica must end with
	// a cut log (base > 0) — the checker reads the recorder, not a kept
	// log. A replica whose frontier is below another's base cannot be caught
	// up from any log (no snapshot install yet); those runs are counted.
	var mu sync.Mutex
	var lost, duplicated, cut int64
	var dropLost, dropCut int64
	truncated, stranded := map[string]int{}, map[string]int{}
	obsNet = func(scenario string, vn *VirtualNet, nodes []*Node) {
		var nl, nc int64
		cutLog, behind := false, false
		for _, n := range nodes {
			nl += n.drops.value(dropNetLoss)
			nc += n.drops.value(dropNetCut)
			if !n.cfg.Store {
				continue
			}
			for s, sr := range n.shards {
				cutLog = cutLog || sr.base > 0
				for _, o := range nodes {
					behind = behind || o.cfg.Store && sr.frontier < o.shards[s].base
				}
			}
		}
		mu.Lock()
		lost += vn.Lost
		duplicated += vn.Duplicated
		cut += vn.Cut
		dropLost += nl
		dropCut += nc
		if cutLog {
			truncated[scenario]++
		}
		if behind {
			stranded[scenario]++
		}
		mu.Unlock()
	}
	defer func() { obsNet = nil }()
	loss, part, batch := find("cluster:loss"), find("cluster:partition"), find("cluster:batch")
	for seed := uint64(0); seed < 50; seed++ {
		loss.Run(seed, false)
		part.Run(seed, false)
		batch.Run(seed, false)
	}
	for _, name := range []string{"cluster:batch", "cluster:partition"} {
		if truncated[name] == 0 {
			t.Errorf("%s never truncated a replica's log in 50 seeds", name)
		}
		t.Logf("%s: a log cut in %d/50 runs, a replica stranded below another's log floor in %d/50",
			name, truncated[name], stranded[name])
	}
	if lost == 0 || duplicated == 0 {
		t.Errorf("cluster:loss never lost (%d) or duplicated (%d) a message in 50 seeds", lost, duplicated)
	}
	if cut == 0 {
		t.Error("cluster:partition never cut a message in 50 seeds")
	}
	if dropLost != lost {
		t.Errorf("frames_dropped{net_loss} counted %d, virtual net lost %d", dropLost, lost)
	}
	if dropCut != cut {
		t.Errorf("frames_dropped{net_cut} counted %d, virtual net cut %d", dropCut, cut)
	}
	t.Logf("owner-crash crashed=%d/50, raw canary bitten=%d/100, lost=%d dup=%d cut=%d",
		crashed, bitten, lost, duplicated, cut)
}
