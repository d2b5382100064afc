package service

import (
	"fmt"
	"math"
)

// Tunables are the runtime-safe knobs of a live Store: the subset of Config
// that can be swapped atomically while traffic is being served. Everything
// else (shard count, worker count, the physical queue capacity, audit window
// shape) is structural and fixed at boot.
//
// The dedup bound is a constant (maxDedup), not a knob: the dedup table is
// part of the replicated state machine, so its eviction bound must be
// identical on every replica at every log position — a change could diverge
// replicas that apply the same position on different sides of it.
type Tunables struct {
	// MaxBatch caps commands per log command. Takes effect at each worker's
	// next grant window.
	MaxBatch int `json:"max_batch"`
	// QueueDepth is the effective per-shard admission bound. The physical
	// channel keeps its boot capacity, so QueueDepth can only shrink below
	// (or restore up to) the boot value: growth past boot is rejected.
	// Shrinking is a soft bound — requests already queued stay queued, and
	// racing senders may briefly overshoot up to the boot capacity.
	QueueDepth int `json:"queue_depth"`
	// AuditSample is the audited keyspace fraction (0 < f <= 1), applied to
	// every subsequent commit. Ignored when auditing was disabled at boot.
	AuditSample float64 `json:"audit_sample"`
	// BackoffBase and BackoffCap bound the supervisor restart backoff in
	// runtime clock units; 0 means the runtime's default. Read per restart.
	BackoffBase int64 `json:"backoff_base"`
	BackoffCap  int64 `json:"backoff_cap"`
	// MaxRestarts is the per-slot crash budget, read per crash: raising it
	// lets a live slot spend more restarts, lowering it condemns a slot at
	// its next crash past the new budget. Already-condemned slots stay
	// condemned.
	MaxRestarts int `json:"max_restarts"`
}

// tunablesFrom extracts the boot-time tunables from a defaulted Config.
func tunablesFrom(cfg Config) Tunables {
	return Tunables{
		MaxBatch:    cfg.MaxBatch,
		QueueDepth:  cfg.QueueDepth,
		AuditSample: cfg.Audit.SampleFraction,
		BackoffBase: cfg.Supervise.BackoffBase,
		BackoffCap:  cfg.Supervise.BackoffCap,
		MaxRestarts: cfg.Supervise.MaxRestarts,
	}
}

// validate checks t against the store's structural limits.
func (t Tunables) validate(boot Config) error {
	if t.MaxBatch < 1 || t.MaxBatch > 1<<16 {
		return fmt.Errorf("service: reload: max_batch %d out of range [1, %d]", t.MaxBatch, 1<<16)
	}
	if t.QueueDepth < 1 || t.QueueDepth > boot.QueueDepth {
		return fmt.Errorf("service: reload: queue_depth %d out of range [1, %d] (boot capacity is the ceiling)",
			t.QueueDepth, boot.QueueDepth)
	}
	if t.AuditSample <= 0 || t.AuditSample > 1 ||
		math.IsNaN(t.AuditSample) || math.IsInf(t.AuditSample, 0) {
		return fmt.Errorf("service: reload: audit_sample %v out of range (0, 1]", t.AuditSample)
	}
	if t.BackoffBase < 0 || t.BackoffCap < 0 {
		return fmt.Errorf("service: reload: negative backoff (base %d, cap %d)", t.BackoffBase, t.BackoffCap)
	}
	if t.BackoffBase > 0 && t.BackoffCap > 0 && t.BackoffCap < t.BackoffBase {
		return fmt.Errorf("service: reload: backoff_cap %d below backoff_base %d", t.BackoffCap, t.BackoffBase)
	}
	if t.MaxRestarts < 1 || t.MaxRestarts > 1<<20 {
		return fmt.Errorf("service: reload: max_restarts %d out of range [1, %d]", t.MaxRestarts, 1<<20)
	}
	return nil
}

// Tunables returns the store's current live tunables.
func (s *Store) Tunables() Tunables { return *s.tun.Load() }

// Reload validates t and swaps it in atomically. Readers (workers, queues,
// supervisors, the auditor) pick the new values up at their next decision
// point — no serving path pauses, no request is dropped, and a failed
// validation leaves the previous tunables fully in force. Safe to call
// concurrently with traffic on the free runtime, and from a driver proc
// mid-run on the virtual one (the swap is one atomic store, deterministic
// at the point the policy schedules it).
func (s *Store) Reload(t Tunables) error {
	if err := t.validate(s.cfg); err != nil {
		return err
	}
	tt := t
	s.tun.Store(&tt)
	if s.audit != nil {
		s.audit.setSampleFraction(t.AuditSample)
	}
	return nil
}

// tunables is the hot-path read: one atomic pointer load.
func (s *Store) tunables() *Tunables { return s.tun.Load() }

// effectiveQueueDepth is the shard queues' admission bound (see
// Tunables.QueueDepth).
func (s *Store) effectiveQueueDepth() int { return s.tun.Load().QueueDepth }
