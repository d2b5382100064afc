package service

import (
	"fmt"
	"strings"
	"testing"
)

// testAuditor builds a standalone auditor on a fresh free runtime, as the
// Store would, and starts its proc.
func testAuditor(cfg AuditConfig) *auditor {
	rt := newFreeRuntime()
	a := newAuditor(cfg.withDefaults(), rt)
	a.join = rt.spawn(a.run)
	return a
}

// feed hands the auditor one completed op with explicit version and
// timestamps, as the shard workers would post-commit.
func feed(a *auditor, key string, ver uint64, call, ret int64, op Op, res Result) {
	a.observe(0, &batchEntry{op: op, call: call, res: res, ver: ver}, ret)
}

func drainAndStats(a *auditor) AuditStats {
	a.close(nil)
	return a.stats()
}

// TestAuditorCleanWindow: a correct contiguous history checks clean, and
// windows close at WindowOps.
func TestAuditorCleanWindow(t *testing.T) {
	a := testAuditor(AuditConfig{WindowOps: 4})
	ts := int64(0)
	for i := 0; i < 8; i++ {
		ts += 2
		feed(a, "k", uint64(i+1), ts-1, ts, Op{Kind: OpPut, Key: "k", Val: fmt.Sprintf("v%d", i)}, Result{OK: true})
	}
	st := drainAndStats(a)
	if st.WindowsChecked != 2 || st.Violations != 0 || st.Gaps != 0 {
		t.Fatalf("stats = %+v, want 2 clean windows", st)
	}
	if st.SampledOps != 8 || st.DroppedOps != 0 {
		t.Fatalf("sampled=%d dropped=%d", st.SampledOps, st.DroppedOps)
	}
}

// TestAuditorCatchesViolation: a stale read inside a contiguous window is a
// violation — the serving path lying about linearizability is caught online.
func TestAuditorCatchesViolation(t *testing.T) {
	a := testAuditor(AuditConfig{WindowOps: 4})
	feed(a, "k", 1, 1, 2, Op{Kind: OpPut, Key: "k", Val: "new"}, Result{OK: true})
	// Sequential (non-overlapping) read that claims to have seen a value
	// never written: no linearization exists.
	feed(a, "k", 2, 3, 4, Op{Kind: OpGet, Key: "k"}, Result{Val: "stale", OK: true})
	feed(a, "k", 3, 5, 6, Op{Kind: OpGet, Key: "k"}, Result{Val: "new", OK: true})
	feed(a, "k", 4, 7, 8, Op{Kind: OpGet, Key: "k"}, Result{Val: "new", OK: true})
	st := drainAndStats(a)
	if st.Violations != 1 {
		t.Fatalf("violations = %d, want 1 (%+v)", st.Violations, st)
	}
	if len(st.ViolationSamples) != 1 || !strings.Contains(st.ViolationSamples[0], `key "k"`) {
		t.Fatalf("violation samples = %v", st.ViolationSamples)
	}

	// A failed cas whose expectation provably held is also a violation.
	a = testAuditor(AuditConfig{WindowOps: 3})
	feed(a, "c", 1, 1, 2, Op{Kind: OpPut, Key: "c", Val: "x"}, Result{OK: true})
	feed(a, "c", 2, 3, 4, Op{Kind: OpCAS, Key: "c", Old: "x", Val: "y"}, Result{OK: false})
	feed(a, "c", 3, 5, 6, Op{Kind: OpGet, Key: "c"}, Result{Val: "x", OK: true})
	st = drainAndStats(a)
	if st.Violations != 1 {
		t.Fatalf("cas violations = %d, want 1", st.Violations)
	}
}

// TestAuditorGapDiscards: a version gap (dropped record) must discard the
// broken window — never check across it — and restart cleanly after it.
func TestAuditorGapDiscards(t *testing.T) {
	a := testAuditor(AuditConfig{WindowOps: 3})
	// Window accumulates v1, v2 — then v3 is "dropped" and v4..v9 arrive.
	// The checker must not see a window containing both v2 and v4: here the
	// missing v3 wrote the value v5 reads, so checking across the gap would
	// be a false violation.
	feed(a, "k", 1, 1, 2, Op{Kind: OpPut, Key: "k", Val: "a"}, Result{OK: true})
	feed(a, "k", 2, 3, 4, Op{Kind: OpGet, Key: "k"}, Result{Val: "a", OK: true})
	// v3 = Put "b" — never delivered.
	for i := uint64(4); i <= 9; i++ {
		feed(a, "k", i, int64(2*i-1), int64(2*i), Op{Kind: OpGet, Key: "k"}, Result{Val: "b", OK: true})
	}
	st := drainAndStats(a)
	if st.Violations != 0 {
		t.Fatalf("false violation across a gap: %+v", st)
	}
	if st.Gaps == 0 {
		t.Fatalf("gap not counted: %+v", st)
	}
}

// TestAuditorOutOfOrder: records arriving out of version order (worker
// preemption between commit and observe) are reassembled, not discarded.
func TestAuditorOutOfOrder(t *testing.T) {
	a := testAuditor(AuditConfig{WindowOps: 4})
	ops := []struct {
		ver  uint64
		kind OpKind
		val  string
	}{
		{2, OpGet, "v1"}, // arrives before v1
		{1, OpPut, "v1"},
		{4, OpGet, "v3"},
		{3, OpPut, "v3"},
	}
	for i, o := range ops {
		op := Op{Kind: o.kind, Key: "k", Val: o.val}
		res := Result{Val: o.val, OK: true}
		// Intervals reflect version order, not arrival order.
		feed(a, "k", o.ver, int64(2*o.ver-1)+int64(i)*0, int64(2*o.ver), op, res)
	}
	st := drainAndStats(a)
	if st.WindowsChecked != 1 || st.Violations != 0 {
		t.Fatalf("stats = %+v, want 1 clean window", st)
	}
	if st.Gaps != 0 {
		t.Fatalf("out-of-order arrival miscounted as gap: %+v", st)
	}
}

// TestAuditorPendingOverflowRestarts: when the hole never fills, the parked
// records eventually restart a fresh window instead of leaking.
func TestAuditorPendingOverflowRestarts(t *testing.T) {
	a := testAuditor(AuditConfig{WindowOps: 2})
	feed(a, "k", 1, 1, 2, Op{Kind: OpPut, Key: "k", Val: "a"}, Result{OK: true})
	// v2 missing; v3.. arrive until the parking lot overflows (> WindowOps).
	for i := uint64(3); i <= 8; i++ {
		feed(a, "k", i, int64(2*i-1), int64(2*i), Op{Kind: OpPut, Key: "k", Val: "b"}, Result{OK: true})
	}
	st := drainAndStats(a)
	if st.Gaps == 0 {
		t.Fatalf("expected a gap restart: %+v", st)
	}
	if st.Violations != 0 {
		t.Fatalf("false violation: %+v", st)
	}
	if st.WindowsChecked == 0 {
		t.Fatalf("restart lost all windows: %+v", st)
	}
}

// TestAuditorSampling: key sampling is all-or-nothing per key and the
// fraction of sampled keys tracks SampleFraction.
func TestAuditorSampling(t *testing.T) {
	a := testAuditor(AuditConfig{SampleFraction: 0.25, WindowOps: 4})
	sampledKeys := 0
	const keys = 200
	for k := 0; k < keys; k++ {
		if a.sampledKey(fmt.Sprintf("key-%d", k)) {
			sampledKeys++
		}
	}
	if sampledKeys == 0 || sampledKeys > keys/2 {
		t.Fatalf("sampled %d of %d keys with fraction 0.25", sampledKeys, keys)
	}
	// Determinism: the same key always answers the same.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		if a.sampledKey(key) != a.sampledKey(key) {
			t.Fatal("sampling not deterministic")
		}
	}
	a.close(nil)
}

// TestAuditorTrackedKeyBound: keys beyond the tracked-key bound are
// dropped, not tracked without bound.
func TestAuditorTrackedKeyBound(t *testing.T) {
	rt := newFreeRuntime()
	a := newAuditor(AuditConfig{WindowOps: 4}.withDefaults(), rt)
	a.maxKeys = 2
	a.join = rt.spawn(a.run)
	for k := 0; k < 8; k++ {
		feed(a, fmt.Sprintf("k%d", k), 1, int64(2*k+1), int64(2*k+2),
			Op{Kind: OpPut, Key: fmt.Sprintf("k%d", k), Val: "v"}, Result{OK: true})
	}
	st := drainAndStats(a)
	if st.DroppedOps != 6 {
		t.Fatalf("dropped = %d, want 6 (2 tracked of 8 keys)", st.DroppedOps)
	}
	if st.WindowsChecked != 2 {
		t.Fatalf("windows = %d, want 2 flush windows", st.WindowsChecked)
	}
}

// TestAuditObserveZeroAllocs: handing a committed op to the auditor — the
// typed record built by observe and its mailbox offer, the audit's whole
// cost on the serving path — allocates nothing, whatever the op's kind.
func TestAuditObserveZeroAllocs(t *testing.T) {
	a := newAuditor(AuditConfig{}.withDefaults(), newFreeRuntime()) // nobody takes: the mailbox holds the run
	ents := []batchEntry{
		{op: Op{Kind: OpGet, Key: "k"}, res: Result{Val: "v", OK: true}},
		{op: Op{Kind: OpPut, Key: "k", Val: "v"}, res: Result{Val: "v", OK: true}},
		{op: Op{Kind: OpCAS, Key: "k", Old: "v", Val: "w"}, res: Result{Val: "w", OK: true}},
	}
	const runs = 100
	if got := testing.AllocsPerRun(runs, func() {
		for i := range ents {
			a.observe(i, &ents[i], 2)
		}
	}); got != 0 {
		t.Errorf("observe allocates %.1f objects per get+put+cas, want 0", got)
	}
	if st := a.stats(); st.SampledOps != int64((runs+1)*len(ents)) || st.DroppedOps != 0 {
		t.Errorf("sampled %d dropped %d: the run did not go through the mailbox", st.SampledOps, st.DroppedOps)
	}
}
