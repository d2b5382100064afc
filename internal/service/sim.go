package service

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Sweep-harness registration: the full serving tier under the virtual
// runtime. Every scenario runs a complete Store — submitter clients, shard
// queues, batching workers contending on replicated logs of consensus
// cells, the online auditor, and a driver that drains the store — as procs
// of one controlled sched.Run, crossed with generated workloads (key skew,
// read/write/cas mix, client batches) and fault plans (worker crashes
// mid-window, stalled submitters or workers, saturated queues, auditor
// starvation, drain during load).
//
// Unlike the free-mode serving tier's sampled online audit, every virtual
// run is checked exhaustively: the runtime records the complete committed
// history (including commands whose owner crashed before answering) and
// the oracle verifies gap-free per-key linearizability over all of it via
// internal/spec, plus progress clauses scoped to the schedule's premises.
// Every failure replays bit-identically from its "service:<scenario>:<seed>"
// token (see cmd/sim -replay).
//
// Proc layout of every scenario's run (fault plans index into it):
//
//	0 .. subs-1   submitter clients
//	subs          driver (waits for the submitters, then CloseOn)
//	subs+1        auditor
//	subs+2 ..     shard workers, shard-major order
//	then          per-shard supervisors and the respawn seat pool
//	              (supervised scenarios only)
func init() {
	for _, sc := range serviceScenarios() {
		sim.Register(sc)
	}
}

// topology fixes one scenario's process and store shape (workloads and
// schedules vary per seed; the shape is part of the scenario identity, so
// fault plans can target specific proc ids).
type topology struct {
	subs    int // submitter clients
	shards  int
	workers int // per shard
	queue   int // per-shard queue depth
	batch   int // MaxBatch
	// supers and seats extend supervised scenarios' proc layout: one
	// supervisor per shard plus the pre-spawned respawn seat pool (the
	// store's SuperviseConfig.Spares must equal seats).
	supers int
	seats  int
}

func (t topology) procs() int       { return t.subs + 2 + t.shards*t.workers + t.supers + t.seats }
func (t topology) driverID() int    { return t.subs }
func (t topology) auditorID() int   { return t.subs + 1 }
func (t topology) firstWorker() int { return t.subs + 2 }

// workerIDs returns the proc ids of every shard worker.
func (t topology) workerIDs() []int {
	ids := make([]int, 0, t.shards*t.workers)
	for g := 0; g < t.shards*t.workers; g++ {
		ids = append(ids, t.firstWorker()+g)
	}
	return ids
}

// runState is the blackboard shared between a scenario's procs and its
// post-run oracle: written only under the run's step token, read after
// Execute.
type runState struct {
	generated int // logical ops submitted (retries of one op count once)
	answered  int // ops whose call returned results
	rejected  int // ops in calls that returned ErrClosed
	abandoned int // ops whose every deadline-bounded attempt timed out
	finished  int // submitters whose script completed (or stopped at close)
	closedOK  bool
	sawStale  bool // canary: a client observed a lost update
	// Reload bookkeeping (service:reload): applied counts successful swaps,
	// badAccepted flags an invalid reload that was not rejected.
	reloadsApplied int
	badAccepted    bool
}

// crashGen layers a worker crash plan over a fair base: 1..maxVictims
// distinct workers crash after a small number of their own steps — i.e.
// mid-window, possibly after committing a batch but before answering its
// clients.
func crashGen(t topology, maxVictims int) sim.Generator {
	return func(n int, _ int64, rng *rand.Rand) sim.Schedule {
		s, mk := sim.DrawFair(n, rng)
		workers := t.workerIDs()
		victims := 1 + rng.IntN(maxVictims)
		if victims >= len(workers) {
			victims = len(workers)
		}
		s.CrashPlan = map[int]int64{}
		for len(s.CrashPlan) < victims {
			s.CrashPlan[workers[rng.IntN(len(workers))]] = rng.Int64N(48)
		}
		plan := s.CrashPlan
		s.Desc += fmt.Sprintf("+crash{%d workers}", len(plan))
		inner := mk
		s.Source = sim.SourceOf(func() sched.Policy { return &sched.CrashAt{Inner: inner(), At: plan} })
		return s
	}
}

// stallGen starves one random submitter or worker: the base policy never
// grants the victim a step (the "stalled" fault — the proc is alive but
// its code never runs).
func stallGen(t topology) sim.Generator {
	return func(n int, _ int64, rng *rand.Rand) sim.Schedule {
		var s sim.Schedule
		s.SoloID = -1
		var victim int
		if rng.IntN(2) == 0 {
			victim = rng.IntN(t.subs)
		} else {
			workers := t.workerIDs()
			victim = workers[rng.IntN(len(workers))]
		}
		var ids []int
		for id := 0; id < n; id++ {
			if id != victim {
				ids = append(ids, id)
			}
		}
		s.Omitted = []int{victim}
		s.Desc = fmt.Sprintf("stall(p%d)", victim)
		s.Source = sim.SourceOf(func() sched.Policy { return &sched.Subset{IDs: ids} })
		return s
	}
}

// starveAuditorGen starves exactly the auditor proc: serving must be
// unaffected (auditing costs coverage, never progress or soundness).
func starveAuditorGen(t topology) sim.Generator {
	return func(n int, _ int64, rng *rand.Rand) sim.Schedule {
		var s sim.Schedule
		s.SoloID = -1
		var ids []int
		for id := 0; id < n; id++ {
			if id != t.auditorID() {
				ids = append(ids, id)
			}
		}
		s.Omitted = []int{t.auditorID()}
		s.Desc = "starve-auditor"
		// Rotate the subset's start so seeds vary the interleaving phase.
		off := rng.IntN(len(ids))
		rot := append(append([]int{}, ids[off:]...), ids[:off]...)
		s.Source = sim.SourceOf(func() sched.Policy { return &sched.Subset{IDs: rot} })
		return s
	}
}

// oracleMode selects which progress clauses a scenario asserts on top of
// the always-on safety checks.
type oracleMode int

const (
	// safetyOnly: exhaustive linearizability + clean online audit. Used by
	// fault-plan scenarios whose progress premises don't hold.
	safetyOnly oracleMode = iota
	// fairComplete: under a fair fault-free schedule the whole run must
	// complete — every proc Done, every generated op answered and
	// committed, the store drained and closed.
	fairComplete
	// drainComplete: like fairComplete, but the driver closes mid-load, so
	// ops may be rejected with ErrClosed; answered+rejected must cover
	// every submitted op and everything must still shut down Done.
	drainComplete
	// submittersComplete: only the submitters' progress is asserted
	// (threshold-guarded) — used when the schedule starves the auditor,
	// which must never stall serving.
	submittersComplete
	// recoverComplete: injected worker crashes with supervision enabled —
	// under a fair schedule, recovery must make the crashes invisible to
	// clients: every op answered and committed exactly once, every restart
	// accounted to an injected crash, no slot condemned.
	recoverComplete
	// retryComplete: deadline-bounded submitters with idempotent retry —
	// clients must always terminate (answered, abandoned or rejected covers
	// every logical op) and dedup must prevent any double-apply (the
	// history checker's op-ID clause is the safety net).
	retryComplete
	// breakerTrips: an unlimited crash rule must burn a slot's restart
	// budget and trip the circuit breaker — the run asserts at least one
	// slot was condemned (progress is necessarily partial; safety still
	// holds for everything answered).
	breakerTrips
)

// spec of one registered scenario.
type vscenario struct {
	name   string
	topo   topology
	budget int64
	wl     Workload
	gen    sim.Generator // nil = sim.FairGen
	mode   oracleMode
	// drainAt, when > 0, makes the driver close the store once the run's
	// logical clock passes a seed-chosen step below this bound, regardless
	// of submitter progress (the drain-during-load fault).
	drainAt int64
	// canary injects the lost-update bug and inverts the oracle: the run
	// passes iff the exhaustive checker caught the injected violation.
	canary bool
	// rawCanary injects the same bug but keeps the standard oracle, so the
	// checker's violations surface as failures (test fixture).
	rawCanary bool
	// supervise enables worker supervision with maxRestarts as the breaker
	// budget (topo.supers/seats must be set to match).
	supervise   bool
	maxRestarts int
	// armFaults, when set, arms a per-seed fault plan on a fresh fault.Set
	// wired into the store.
	armFaults func(f *fault.Set, rng *rand.Rand)
	// retry switches submitters to deadline-bounded DoTimeoutOn calls with
	// client-assigned op IDs and idempotent retry on ErrDeadline.
	retry *retryCfg
	// noDedup breaks the state machine's op-ID dedup (must-detect canary:
	// the oracle passes only if the history checker flags the resulting
	// double-applies).
	noDedup bool
	// reloads, when > 0, makes the driver perform that many seed-chosen
	// valid config reloads at seed-chosen logical times mid-run (plus one
	// invalid reload that must be rejected without effect). The oracle
	// additionally asserts the metrics registry's counters exactly: under
	// the virtual runtime they are deterministic in (scenario, seed).
	reloads int
}

// retryCfg tunes deadline-bounded submitters: each attempt waits
// timeoutMin + seed-chosen[0, timeoutVar) logical steps, and a logical op
// is abandoned after maxTries ErrDeadline results.
type retryCfg struct {
	timeoutMin int64
	timeoutVar int64
	maxTries   int
}

func serviceScenarios() []sim.Scenario {
	specs := []vscenario{
		{
			name: "service:smoke", budget: 8192, mode: fairComplete,
			topo: topology{subs: 2, shards: 1, workers: 2, queue: 8, batch: 4},
			wl:   Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.2, Ops: 5, MaxCall: 1},
		},
		{
			name: "service:skew", budget: 8192, mode: fairComplete,
			topo: topology{subs: 3, shards: 2, workers: 1, queue: 4, batch: 3},
			wl:   Workload{Keys: []string{"hot", "w1", "w2", "w3"}, HotFrac: 0.6, CASFrac: 0.45, Ops: 5, MaxCall: 1},
		},
		{
			name: "service:batch", budget: 8192, mode: fairComplete,
			topo: topology{subs: 2, shards: 2, workers: 2, queue: 6, batch: 4},
			wl:   Workload{Keys: []string{"a", "b", "c", "d"}, CASFrac: 0.25, Ops: 8, MaxCall: 3},
		},
		{
			name: "service:saturate", budget: 16384, mode: fairComplete,
			topo: topology{subs: 3, shards: 1, workers: 1, queue: 1, batch: 1},
			wl:   Workload{Keys: []string{"a", "b"}, HotFrac: 0.5, CASFrac: 0.2, Ops: 4, MaxCall: 1},
		},
		{
			name: "service:crash", budget: 8192, mode: safetyOnly,
			topo: topology{subs: 2, shards: 1, workers: 2, queue: 4, batch: 4},
			wl:   Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.25, Ops: 5, MaxCall: 1},
		},
		{
			name: "service:stall", budget: 8192, mode: safetyOnly,
			topo: topology{subs: 2, shards: 2, workers: 1, queue: 4, batch: 3},
			wl:   Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.25, Ops: 5, MaxCall: 1},
		},
		{
			name: "service:drain", budget: 8192, mode: drainComplete, drainAt: 600,
			topo: topology{subs: 2, shards: 1, workers: 2, queue: 4, batch: 4},
			wl:   Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.2, Ops: 8, MaxCall: 1},
		},
		{
			name: "service:audit-starve", budget: 8192, mode: submittersComplete,
			topo: topology{subs: 2, shards: 1, workers: 1, queue: 4, batch: 4},
			wl:   Workload{Keys: []string{"a", "b"}, CASFrac: 0.2, Ops: 5, MaxCall: 1},
		},
		{
			name: "service:canary", budget: 8192, mode: safetyOnly, canary: true,
			topo: topology{subs: 1, shards: 1, workers: 1, queue: 4, batch: 2},
			wl:   Workload{Keys: []string{"poison", "clean"}, HotFrac: 0.7, CASFrac: 0, Ops: 6, MaxCall: 1},
		},
		{
			// Config reloads land mid-sweep (MaxBatch, queue depth, audit
			// sampling, restart budget all re-drawn per seed) while clients
			// are submitting: linearizability, full completion and exact
			// metric accounting must all survive the swaps.
			name: "service:reload", budget: 16384, mode: fairComplete, reloads: 3,
			topo: topology{subs: 2, shards: 2, workers: 2, queue: 6, batch: 4},
			wl:   Workload{Keys: []string{"a", "b", "c", "d"}, CASFrac: 0.25, Ops: 8, MaxCall: 2},
		},
		{
			// Injected worker crashes at the pre-commit / post-commit /
			// pre-apply fault points, with supervision healing every one:
			// recovery must be invisible to clients.
			name: "service:recover", budget: 24576, mode: recoverComplete,
			supervise: true, maxRestarts: 3,
			topo: topology{subs: 2, shards: 1, workers: 2, queue: 4, batch: 3, supers: 1, seats: 4},
			wl:   Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.25, Ops: 5, MaxCall: 1},
		},
		{
			// An unlimited crash rule turns the shard's only slot into a
			// crash loop; the breaker must condemn it instead of burning
			// respawn seats forever.
			name: "service:crash-loop", budget: 16384, mode: breakerTrips,
			supervise: true, maxRestarts: 2,
			topo: topology{subs: 2, shards: 1, workers: 1, queue: 4, batch: 1, supers: 1, seats: 2},
			wl:   Workload{Keys: []string{"a", "b"}, CASFrac: 0.2, Ops: 4, MaxCall: 1},
		},
		{
			// Deadline-bounded clients retrying with op IDs across injected
			// post-commit crashes: a retry of a command that did commit must
			// dedup, never double-apply (the history checker's op-ID clause
			// proves it).
			name: "service:timeout-retry", budget: 24576, mode: retryComplete,
			supervise: true, maxRestarts: 4,
			retry: &retryCfg{timeoutMin: 48, timeoutVar: 256, maxTries: 3},
			topo:  topology{subs: 2, shards: 1, workers: 2, queue: 4, batch: 3, supers: 1, seats: 4},
			wl:    Workload{Keys: []string{"a", "b", "c"}, CASFrac: 0.3, Ops: 4, MaxCall: 1},
		},
		{
			// Must-detect canary: dedup deliberately broken, so a retry of a
			// committed command double-applies — the run passes only if the
			// exhaustive checker flags every such ground-truth double.
			name: "service:dedup-canary", budget: 24576, mode: safetyOnly, noDedup: true,
			supervise: true, maxRestarts: 4,
			retry: &retryCfg{timeoutMin: 8, timeoutVar: 56, maxTries: 2},
			topo:  topology{subs: 2, shards: 1, workers: 1, queue: 4, batch: 2, supers: 1, seats: 3},
			wl:    Workload{Keys: []string{"a", "b"}, CASFrac: 0.25, Ops: 4, MaxCall: 1},
		},
	}
	// Scenario-specific generators and fault plans that need the topology.
	for i := range specs {
		switch specs[i].name {
		case "service:crash":
			specs[i].gen = crashGen(specs[i].topo, 2)
		case "service:stall":
			specs[i].gen = stallGen(specs[i].topo)
		case "service:audit-starve":
			specs[i].gen = starveAuditorGen(specs[i].topo)
		case "service:recover":
			specs[i].armFaults = recoverFaults
		case "service:crash-loop":
			specs[i].armFaults = func(f *fault.Set, _ *rand.Rand) {
				f.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Crash, Count: -1})
			}
		case "service:timeout-retry", "service:dedup-canary":
			specs[i].armFaults = retryFaults
		}
	}
	out := make([]sim.Scenario, 0, len(specs))
	for _, sc := range specs {
		out = append(out, sc.scenario())
	}
	return out
}

// crashPoints are the worker-crash fault points recovery scenarios draw
// from.
var crashPoints = []string{FaultWorkerPreCommit, FaultWorkerPostCommit, FaultWorkerPreApply}

// recoverFaults arms 1..3 distinct worker-crash points (one crash each,
// after a seed-chosen number of firings), plus occasional audit-record
// drops and queue-send delays — faults recovery must absorb without any
// client-visible effect.
func recoverFaults(f *fault.Set, rng *rand.Rand) {
	n := 1 + rng.IntN(len(crashPoints))
	perm := rng.Perm(len(crashPoints))
	for _, pi := range perm[:n] {
		f.Arm(crashPoints[pi], fault.Rule{Action: fault.Crash, After: rng.Int64N(3), Count: 1})
	}
	if rng.IntN(2) == 0 {
		f.Arm(FaultAuditRecord, fault.Rule{
			Action: fault.Drop, After: rng.Int64N(8), Count: 1 + rng.Int64N(4)})
	}
	if rng.IntN(2) == 0 {
		f.Arm(FaultQueueSend, fault.Rule{
			Action: fault.Delay, Delay: 1 + rng.Int64N(64), After: rng.Int64N(4), Count: 1 + rng.Int64N(3)})
	}
}

// retryFaults arms post-commit crashes (the batch is decided but its
// clients unanswered — exactly the window where a client deadline expires
// and the retry must dedup), sometimes compounded with a pre-commit crash.
func retryFaults(f *fault.Set, rng *rand.Rand) {
	f.Arm(FaultWorkerPostCommit, fault.Rule{
		Action: fault.Crash, After: rng.Int64N(2), Count: 1 + rng.Int64N(2)})
	if rng.IntN(2) == 0 {
		f.Arm(FaultWorkerPreCommit, fault.Rule{Action: fault.Crash, After: rng.Int64N(3), Count: 1})
	}
}

// scenario assembles the sim.Scenario: generator first, then the builder
// wiring a fresh virtual store and its procs into the run.
func (sc vscenario) scenario() sim.Scenario {
	gen := sc.gen
	if gen == nil {
		gen = sim.FairGen
	}
	return sim.System(sc.name, "service", sc.topo.procs(), sc.budget, gen, sc.build)
}

func (sc vscenario) build(r *sched.Run, rng *rand.Rand) sim.Oracle {
	topo := sc.topo
	vr := NewVirtualRuntime(r, topo.auditorID())
	cfg := Config{
		Shards:          topo.shards,
		WorkersPerShard: topo.workers,
		QueueDepth:      topo.queue,
		MaxBatch:        topo.batch,
		Audit:           AuditConfig{WindowOps: 4, QueueDepth: 64},
	}
	if sc.supervise {
		cfg.Supervise = SuperviseConfig{
			Enabled:     true,
			MaxRestarts: sc.maxRestarts,
			JitterSeed:  rng.Uint64() | 1,
			Spares:      topo.seats,
		}
	}
	if sc.armFaults != nil {
		fs := fault.NewSet()
		sc.armFaults(fs, rng)
		cfg.Faults = fs
	}
	store := NewVirtual(cfg, vr)
	if sc.canary || sc.rawCanary {
		store.debugDropPuts = "poison"
	}
	if sc.noDedup {
		store.debugNoDedup = true
	}

	st := &runState{}
	for i := 0; i < topo.subs; i++ {
		calls := sc.wl.GenCalls(i, rng)
		if rc := sc.retry; rc != nil {
			sub := i
			timeout := rc.timeoutMin + rng.Int64N(rc.timeoutVar)
			r.Spawn(i, func(p *sched.Proc) {
				runRetrySubmitter(p, store, st, sub, calls, timeout, rc.maxTries)
			})
			continue
		}
		r.Spawn(i, func(p *sched.Proc) { runSubmitter(p, store, st, calls) })
	}
	closeAt := sc.budget / 2
	waitForSubs := true
	if sc.drainAt > 0 {
		closeAt = 8 + rng.Int64N(sc.drainAt)
		waitForSubs = false
	}
	// Reload plan: times and target tunables are drawn here, at build time,
	// so they are fixed per (scenario, seed) before the run executes.
	var reloadAt []int64
	var reloadTo []Tunables
	boot := store.Tunables()
	for i := 0; i < sc.reloads; i++ {
		reloadAt = append(reloadAt, 16+rng.Int64N(sc.budget/8))
		t := boot
		t.MaxBatch = 1 + rng.IntN(2*boot.MaxBatch)
		t.QueueDepth = 1 + rng.IntN(boot.QueueDepth)
		t.AuditSample = []float64{1, 0.75, 0.5}[rng.IntN(3)]
		t.MaxRestarts = 1 + rng.IntN(4)
		reloadTo = append(reloadTo, t)
	}
	r.Spawn(topo.driverID(), func(p *sched.Proc) {
		for i := range reloadAt {
			at := reloadAt[i]
			p.Park(func() bool {
				return (waitForSubs && st.finished == topo.subs) || p.Now() >= at
			})
			if store.Reload(reloadTo[i]) == nil {
				st.reloadsApplied++
			}
		}
		if sc.reloads > 0 {
			// An out-of-range reload must be rejected and leave the live
			// tunables untouched.
			bad := boot
			bad.QueueDepth = boot.QueueDepth + 1
			if store.Reload(bad) == nil {
				st.badAccepted = true
			}
		}
		p.Park(func() bool {
			return (waitForSubs && st.finished == topo.subs) || p.Now() >= closeAt
		})
		if err := store.CloseOn(p); err == nil {
			st.closedOK = true
		}
	})

	return func(res sched.Results, sch sim.Schedule) []string {
		if sc.canary {
			return canaryOracle(vr, st)
		}
		if sc.noDedup {
			return dedupCanaryOracle(vr, store)
		}
		out := append([]string(nil), vr.CheckHistory()...)
		stats := store.Stats()
		if stats.Audit.Violations > 0 {
			out = append(out, fmt.Sprintf("online audit reported %d violations: %v",
				stats.Audit.Violations, stats.Audit.ViolationSamples))
		}
		if sc.reloads > 0 {
			out = append(out, reloadOracle(store, vr, st, stats, sc.reloads)...)
		}
		switch sc.mode {
		case fairComplete, drainComplete:
			if !sch.Fair() {
				break
			}
			for id, status := range res.Status {
				if status != sched.Done {
					out = append(out, fmt.Sprintf(
						"progress violated: p%d is %v under fair schedule %s", id, status, sch.Desc))
				}
			}
			if !st.closedOK {
				out = append(out, "progress violated: store did not drain and close under a fair schedule")
			}
			if sc.mode == fairComplete {
				if st.rejected != 0 || st.answered != st.generated {
					out = append(out, fmt.Sprintf(
						"progress violated: %d/%d ops answered, %d rejected, under fault-free fair schedule",
						st.answered, st.generated, st.rejected))
				}
				if vr.CommittedOps() != st.generated || int(stats.TotalOps) != vr.CommittedOps() {
					out = append(out, fmt.Sprintf(
						"accounting violated: %d generated, %d committed, %d served",
						st.generated, vr.CommittedOps(), stats.TotalOps))
				}
			} else if st.answered+st.rejected != st.generated {
				out = append(out, fmt.Sprintf(
					"accounting violated under drain: %d answered + %d rejected != %d submitted",
					st.answered, st.rejected, st.generated))
			}
		case submittersComplete:
			// The auditor is starved, serving must not be: a submitter that
			// kept taking steps (threshold-guarded against seeds where the
			// budget ran dry) must have finished its script.
			for id := 0; id < topo.subs; id++ {
				if res.Status[id] == sched.Starved && res.Steps[id] >= 1500 {
					out = append(out, fmt.Sprintf(
						"progress violated: submitter p%d starved after %d steps while only the auditor was stalled",
						id, res.Steps[id]))
				}
			}
		case recoverComplete:
			if !sch.Fair() {
				break
			}
			// Crashes were injected and healed: clients (and the driver)
			// must be oblivious. Workers and seats may legitimately end
			// Crashed — that is the point — so only the client side asserts
			// Done.
			for id := 0; id <= topo.subs; id++ {
				if res.Status[id] != sched.Done {
					out = append(out, fmt.Sprintf(
						"recovery violated: p%d is %v under fair schedule %s", id, res.Status[id], sch.Desc))
				}
			}
			if !st.closedOK {
				out = append(out, "recovery violated: store did not drain and close")
			}
			if st.rejected != 0 || st.answered != st.generated {
				out = append(out, fmt.Sprintf(
					"recovery violated: %d/%d ops answered, %d rejected",
					st.answered, st.generated, st.rejected))
			}
			if vr.CommittedOps() != st.generated || int(stats.TotalOps) != st.generated {
				out = append(out, fmt.Sprintf(
					"recovery accounting violated: %d generated, %d committed, %d served",
					st.generated, vr.CommittedOps(), stats.TotalOps))
			}
			var acted int64
			for _, pt := range crashPoints {
				acted += stats.Faults[pt].Acted
			}
			if stats.Supervision.Restarts != acted {
				out = append(out, fmt.Sprintf(
					"supervision accounting violated: %d restarts for %d injected crashes",
					stats.Supervision.Restarts, acted))
			}
			if stats.Supervision.Condemned != 0 || stats.Supervision.SparesExhausted != 0 {
				out = append(out, fmt.Sprintf(
					"supervision violated: %d slots condemned, %d spare exhaustions, within the restart budget",
					stats.Supervision.Condemned, stats.Supervision.SparesExhausted))
			}
		case retryComplete:
			if !sch.Fair() {
				break
			}
			// Deadline-bounded clients always terminate, and every logical
			// op is accounted exactly once. Double-applies are caught by the
			// always-on history check (op-ID clause).
			for id := 0; id <= topo.subs; id++ {
				if res.Status[id] != sched.Done {
					out = append(out, fmt.Sprintf(
						"retry progress violated: p%d is %v under fair schedule %s", id, res.Status[id], sch.Desc))
				}
			}
			if !st.closedOK {
				out = append(out, "retry progress violated: store did not drain and close")
			}
			if st.answered+st.abandoned+st.rejected != st.generated {
				out = append(out, fmt.Sprintf(
					"retry accounting violated: %d answered + %d abandoned + %d rejected != %d generated",
					st.answered, st.abandoned, st.rejected, st.generated))
			}
		case breakerTrips:
			if !sch.Fair() {
				break
			}
			if stats.Supervision.Condemned < 1 {
				out = append(out, fmt.Sprintf(
					"breaker violated: unlimited crash rule acted %d times but no slot was condemned (restarts=%d)",
					stats.Faults[FaultWorkerPreCommit].Acted, stats.Supervision.Restarts))
			}
		}
		return out
	}
}

// reloadOracle asserts the reload scenario's extra clauses: every planned
// valid reload applied, the invalid one was rejected, and the metrics
// registry (through its Stats view) agrees exactly with the history
// recorder's independent record of what committed — under the virtual
// runtime every record happens inside the controlled run, so the counters
// are deterministic in (scenario, seed) and == is the right comparison.
func reloadOracle(store *Store, vr *VirtualRuntime, st *runState, stats Stats, want int) []string {
	var out []string
	if st.reloadsApplied != want {
		out = append(out, fmt.Sprintf(
			"reload violated: %d of %d valid reloads applied", st.reloadsApplied, want))
	}
	if st.badAccepted {
		out = append(out, "reload violated: out-of-range tunables were accepted")
	}
	var committed [NumOpKinds]int64
	for _, rec := range vr.rec.records {
		committed[rec.r.op.Kind]++
	}
	for k, n := range committed {
		kind := OpKind(k).String()
		if stats.Ops[kind] != n || stats.Latency[kind].Count != n {
			out = append(out, fmt.Sprintf(
				"metrics accounting violated: %s: service_ops_total %d, latency histogram count %d, history committed %d",
				kind, stats.Ops[kind], stats.Latency[kind].Count, n))
		}
	}
	if stats.BatchSize.Count != stats.Batches || stats.BatchSize.Sum != int64(vr.CommittedOps()) {
		out = append(out, fmt.Sprintf(
			"metrics accounting violated: occupancy histogram holds %d batches of %d ops, service_batches_total %d, history committed %d",
			stats.BatchSize.Count, stats.BatchSize.Sum, stats.Batches, vr.CommittedOps()))
	}
	if got := store.mets.inflight.Value(); got != 0 {
		out = append(out, fmt.Sprintf(
			"metrics accounting violated: service_inflight %d after drain, want 0", got))
	}
	return out
}

// canaryOracle inverts the verdict: the injected lost-update bug (puts on
// "poison" acknowledged but dropped) must be caught by the exhaustive
// checker whenever a client actually observed it. This is the harness's
// negative control — if it ever fails, the checker has gone blind.
func canaryOracle(vr *VirtualRuntime, st *runState) []string {
	violations := vr.CheckHistory()
	if st.sawStale && len(violations) == 0 {
		return []string{"canary: client observed the injected lost update but the exhaustive checker reported no violation"}
	}
	return nil
}

// dedupCanaryOracle is the must-detect control for op-ID deduplication:
// with dedup deliberately broken, any retry of a committed command
// double-applies, and the exhaustive checker MUST flag it. The ground
// truth (debugDoubles, counted by the state machine at the double-apply
// itself) and the checker's verdict must agree — a run where state was
// double-mutated but the checker stayed silent means the checker has gone
// blind.
func dedupCanaryOracle(vr *VirtualRuntime, store *Store) []string {
	if store.debugDoubles.Load() > 0 && len(vr.CheckHistory()) == 0 {
		return []string{fmt.Sprintf(
			"canary: state machine double-applied %d retried ops but the exhaustive checker reported no violation",
			store.debugDoubles.Load())}
	}
	return nil
}

// runRetrySubmitter plays one client script through deadline-bounded calls
// with client-assigned op IDs: each logical op is attempted with
// DoTimeoutOn and retried (same op, same ID) up to maxTries times on
// ErrDeadline, then abandoned. The state machine's dedup makes the retries
// exactly-once; an abandoned op may still commit.
func runRetrySubmitter(p *sched.Proc, store *Store, st *runState, sub int, calls [][]Op, timeout int64, maxTries int) {
	seq := uint64(0)
	for _, c := range calls {
		for _, op := range c {
			seq++
			op.ID = uint64(sub+1)<<32 | seq
			st.generated++
			var err error
			for try := 0; try < maxTries; try++ {
				_, err = store.DoTimeoutOn(p, op, timeout)
				if err != ErrDeadline {
					break
				}
			}
			switch err {
			case nil:
				st.answered++
			case ErrDeadline:
				st.abandoned++
			default:
				st.rejected++
				st.finished++
				return
			}
		}
	}
	st.finished++
}

// runSubmitter plays one client script, accounting every attempted op.
// On ErrClosed (the store drained mid-load) it stops cleanly.
func runSubmitter(p *sched.Proc, store *Store, st *runState, calls [][]Op) {
	var lastPut map[string]string
	for _, c := range calls {
		st.generated += len(c)
		if len(c) == 1 {
			res, err := store.DoOn(p, c[0])
			if err != nil {
				st.rejected++
				break
			}
			st.answered++
			trackStale(st, &lastPut, c[0], res)
		} else {
			res, err := store.DoBatchOn(p, c)
			if err != nil {
				st.rejected += len(c)
				break
			}
			st.answered += len(res)
			for i, r := range res {
				trackStale(st, &lastPut, c[i], r)
			}
		}
	}
	st.finished++
}

// trackStale is the canary's client-side divergence detector: after an
// acknowledged put, a later sequential get returning anything else proves
// the store lied to this client.
func trackStale(st *runState, lastPut *map[string]string, op Op, res Result) {
	switch op.Kind {
	case OpPut:
		if *lastPut == nil {
			*lastPut = map[string]string{}
		}
		(*lastPut)[op.Key] = op.Val
	case OpGet:
		if want, ok := (*lastPut)[op.Key]; ok && res.Val != want {
			st.sawStale = true
		}
	}
}
