package service

import (
	"math/rand/v2"

	"repro/internal/sched"
)

// SuperviseConfig tunes worker supervision: whether crashed worker
// incarnations are respawned, how the restart backoff grows, and when the
// crash-loop circuit breaker gives up on a slot.
type SuperviseConfig struct {
	// Enabled turns supervision on. Off (the default), a crashed worker is
	// permanently lost shard capacity, as in the pre-supervision tier.
	Enabled bool
	// MaxRestarts is the per-slot crash budget: the breaker condemns a slot
	// on the crash after its MaxRestarts-th restart, rather than crash-loop
	// forever. Default 3.
	MaxRestarts int
	// BackoffBase and BackoffCap bound the exponential restart backoff, in
	// runtime clock units (nanoseconds on the free runtime, scheduler steps
	// on the virtual one). The n-th restart of a slot waits
	// min(BackoffBase<<n, BackoffCap) plus jitter in [0, BackoffBase).
	// Zero means the runtime's default (1ms/100ms free, 16/256 steps
	// virtual).
	BackoffBase int64
	BackoffCap  int64
	// JitterSeed seeds the per-shard jitter stream (deterministic: shard i
	// draws from PCG(JitterSeed, i)). Zero means 1.
	JitterSeed uint64
	// Spares is the respawn seat budget on the virtual runtime, where a
	// controlled run cannot add procs after it starts: that many procs are
	// pre-spawned parked and handed out per respawn. Exhaustion condemns
	// the slot like a tripped breaker. Zero means Shards * WorkersPerShard *
	// MaxRestarts (every slot can use its full restart budget). The free
	// runtime mints goroutines on demand and ignores Spares.
	Spares int
}

func (c SuperviseConfig) withDefaults() SuperviseConfig {
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	return c
}

// spares resolves the virtual-runtime seat budget.
func (c SuperviseConfig) spares(slots int) int {
	if c.Spares > 0 {
		return c.Spares
	}
	return slots * c.MaxRestarts
}

// supervise is the per-shard supervisor loop: it consumes death notices
// from the shard's worker incarnations and respawns replacements with
// exponential backoff + jitter, condemning a slot when its crash budget
// (or the virtual runtime's seat pool) is exhausted. The supervisor itself
// runs as a managed proc, so under the virtual runtime every restart — the
// backoff sleep, the respawn, the replacement's recovery — is scheduled by
// the run's policy and replays deterministically.
//
// It exits once the store is closing and every slot has settled: exited
// cleanly (queue drained) or been condemned.
func (sh *shard) supervise(p *sched.Proc) {
	st := sh.store
	cfg := st.cfg.Supervise
	defBase, defCap := st.rt.backoffDefaults()
	rng := rand.New(rand.NewPCG(cfg.JitterSeed, uint64(sh.id)))
	done := make([]bool, len(sh.slots))
	// restarts is each slot's spent crash budget. This loop is its only
	// reader and writer; the count operators see is mets.restarts.
	restarts := make([]int, len(sh.slots))
	closing := false
	settled := func() bool {
		for i, sl := range sh.slots {
			if !done[i] && !sl.condemned.Load() {
				return false
			}
		}
		return true
	}
	for {
		if closing && settled() {
			return
		}
		ev := sh.notify.wait(p)
		if ev.closing {
			closing = true
			continue
		}
		sl := ev.sl
		if !ev.crashed {
			done[sl.idx] = true
			continue
		}
		done[sl.idx] = false
		spent := restarts[sl.idx]
		// Backoff and the crash budget are re-read per crash, so a config
		// reload applies to the very next restart decision.
		tun := st.tunables()
		base, max := tun.BackoffBase, tun.BackoffCap
		if base <= 0 {
			base = defBase
		}
		if max <= 0 {
			max = defCap
		}
		if spent >= tun.MaxRestarts {
			// Crash-loop breaker: the slot burned its whole restart budget.
			sl.condemned.Store(true)
			st.mets.condemned.Inc()
			continue
		}
		d := base << uint(spent)
		if d > max {
			d = max
		}
		d += rng.Int64N(base)
		st.rt.sleep(p, d)
		restarts[sl.idx]++
		st.mets.restarts.IncAt(sl.gid)
		if !st.rt.respawn(sl.incarnation()) {
			sl.condemned.Store(true)
			st.mets.sparesExhausted.Inc()
		}
	}
}
