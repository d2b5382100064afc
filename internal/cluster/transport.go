package cluster

import "repro/internal/sched"

// Transport is the sealed seam between the cluster state machine and the
// network: Node.Run speaks only this interface, and the two
// implementations — real TCP framing RPW1 replication opcodes
// (transport_free.go) and a simulated network inside one deterministic
// sched.Run (transport_virtual.go) — are the only ones possible, because
// the methods are unexported. That is what lets the virtual scenarios in
// sim.go exhaust the exact protocol code that serves production traffic.
//
// The p argument is the calling proc in virtual mode and ignored (may be
// nil) in free mode. Clock readings from now are in transport units:
// nanoseconds (free) or run steps (virtual).
type Transport interface {
	// send delivers m to node to, best-effort: the free transport drops on
	// connection failure, the virtual transport drops, delays, duplicates
	// or partitions by schedule decision. Self-sends loop back through the
	// inbox (reliably), so broadcast code needs no self special-case.
	// m is only lent: send encodes or copies it before it returns, and the
	// node reuses it for its next send.
	send(p *sched.Proc, to NodeID, m *message)
	// inject enqueues a local control or client message into this node's
	// own inbox, reliably and fault-free. In free mode it is safe from any
	// goroutine; in virtual mode the caller must be a proc of the run.
	// It returns false once drain has closed the inbox — the message will
	// never be delivered and the caller must fail the call itself.
	inject(p *sched.Proc, m *message) bool
	// recv returns the next inbox message, blocking until one is due, the
	// transport closes, or now reaches deadline (ok=false for the latter
	// two — the event loop then runs its timers).
	recv(p *sched.Proc, deadline int64) (m *message, ok bool)
	// tryRecv returns the next already-due inbox message without blocking
	// (ok=false when none is due) — the event loop drains bursts with it
	// so piggybacked acks and coalesced frames amortize across a whole
	// burst instead of one message.
	tryRecv(p *sched.Proc) (m *message, ok bool)
	// release hands back a received message once handle is done with it
	// (see message's ownership rule). The free transport recycles it for a
	// later frame or self-send; the virtual transport does nothing, since
	// it delivers duplicates by sharing the pointer.
	release(m *message)
	// flush pushes out every send buffered since the last flush. Sends
	// coalesce per destination between flushes: the free transport writes
	// a peer's whole burst as one syscall, the virtual transport gives it
	// one loss/delay/duplication decision — so the cross-runtime
	// behaviours stay equivalent. The event loop flushes once per
	// iteration, after handling a burst and running its timers.
	flush(p *sched.Proc)
	// drain closes the inbox to further deliveries and returns what was
	// still queued, in arrival order. The event loop calls it exactly once,
	// at shutdown: a client call racing the shutdown message lands either
	// in the returned tail (the loop fails it with ErrClosed) or after the
	// close (inject returns false and the submitter fails it) — never in
	// limbo with its submitter blocked forever.
	drain(p *sched.Proc) []*message
	// now reads the transport clock.
	now(p *sched.Proc) int64
	// close tears the transport down; blocked recvs return.
	close()
}
