// Package memory implements the shared base objects of the paper's system
// model: atomic multi-writer multi-reader read/write registers (Section 2),
// plus the stronger primitives used to realize the consensus base objects —
// a write-once cell (the compare-and-swap idiom that gives wait-free
// consensus, consensus number +inf in Herlihy's hierarchy), a fetch&add
// counter, test&set, and a general compare&swap register.
//
// Every operation takes the invoking process handle and charges exactly one
// scheduler step before performing the access, so that in controlled runs
// each operation is one atomic event of the run, exactly as in the paper's
// event model. In free mode the operations are ordinary linearizable
// primitives on real goroutines.
//
// The operations are engineered for a zero-allocation hot path: value-typed
// registers serialize with a mutex instead of boxing values behind atomic
// pointers (in controlled runs the scheduler already serializes accesses,
// and in free mode the critical section is a few instructions), and every
// event annotation is guarded by Proc.Tracing so that values are boxed only
// when a logger is installed.
package memory

import (
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Register is an atomic multi-writer multi-reader register holding a value of
// type T. The zero value holds the zero value of T.
type Register[T any] struct {
	name string
	mu   sync.Mutex
	v    T
}

// NewRegister returns a register initialized to init. The name is used only
// for event annotation.
func NewRegister[T any](name string, init T) *Register[T] {
	return &Register[T]{name: name, v: init}
}

// Init (re)initializes an embedded register in place to init, naming it for
// event annotation. Composite objects embed registers by value and call Init
// from their constructors, so building them costs one allocation.
func (r *Register[T]) Init(name string, init T) {
	r.name = name
	r.v = init
}

// Read returns the current value. It is one atomic step.
func (r *Register[T]) Read(p *sched.Proc) T {
	p.Step()
	r.mu.Lock()
	out := r.v
	r.mu.Unlock()
	if p.Tracing() {
		p.Record("read", r.name, out)
	}
	return out
}

// Write stores v. It is one atomic step.
func (r *Register[T]) Write(p *sched.Proc, v T) {
	p.Step()
	r.mu.Lock()
	r.v = v
	r.mu.Unlock()
	if p.Tracing() {
		p.Record("write", r.name, v)
	}
}

// OptRegister is an atomic register that starts unset (the paper's ⊥ initial
// value) and can be written any number of times.
type OptRegister[T any] struct {
	name string
	mu   sync.Mutex
	v    T
	set  bool
}

// NewOptRegister returns an unset register named name.
func NewOptRegister[T any](name string) *OptRegister[T] {
	return &OptRegister[T]{name: name}
}

// Init (re)initializes an embedded register in place to unset, naming it for
// event annotation.
func (r *OptRegister[T]) Init(name string) {
	r.name = name
	var zero T
	r.v, r.set = zero, false
}

// Read returns the current value and whether the register has been written.
func (r *OptRegister[T]) Read(p *sched.Proc) (T, bool) {
	p.Step()
	r.mu.Lock()
	out, ok := r.v, r.set
	r.mu.Unlock()
	if p.Tracing() {
		if ok {
			p.Record("read", r.name, out)
		} else {
			p.Record("read", r.name, nil)
		}
	}
	return out, ok
}

// Write stores v.
func (r *OptRegister[T]) Write(p *sched.Proc, v T) {
	p.Step()
	r.mu.Lock()
	r.v, r.set = v, true
	r.mu.Unlock()
	if p.Tracing() {
		p.Record("write", r.name, v)
	}
}

// Once is a write-once cell: the first Propose wins and every Propose returns
// the winning value. It is the compare&swap-based decision cell used to build
// wait-free consensus (consensus number +inf), i.e. the (x, x)-live consensus
// base objects that the paper assumes in Section 6.
type Once[T any] struct {
	name string
	mu   sync.Mutex
	v    T
	set  bool
}

// NewOnce returns an empty cell named name.
func NewOnce[T any](name string) *Once[T] {
	return &Once[T]{name: name}
}

// Init (re)initializes an embedded cell in place to empty, naming it for
// event annotation.
func (o *Once[T]) Init(name string) {
	o.name = name
	var zero T
	o.v, o.set = zero, false
}

// Propose installs v if the cell is empty and returns the cell's value. One
// atomic step (a compare-and-swap followed by a load of the same cell is a
// single read-modify-write event).
func (o *Once[T]) Propose(p *sched.Proc, v T) T {
	p.Step()
	o.mu.Lock()
	if !o.set {
		o.v, o.set = v, true
	}
	out := o.v
	o.mu.Unlock()
	if p.Tracing() {
		p.Record("propose", o.name, out)
	}
	return out
}

// TryGet returns the cell's value if it has been decided.
func (o *Once[T]) TryGet(p *sched.Proc) (T, bool) {
	p.Step()
	o.mu.Lock()
	out, ok := o.v, o.set
	o.mu.Unlock()
	if p.Tracing() {
		if ok {
			p.Record("tryget", o.name, out)
		} else {
			p.Record("tryget", o.name, nil)
		}
	}
	return out, ok
}

// Counter is a fetch&add register (a Common2 object, consensus number 2).
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter returns a counter named name starting at 0.
func NewCounter(name string) *Counter {
	return &Counter{name: name}
}

// FetchAdd atomically adds delta and returns the previous value.
func (c *Counter) FetchAdd(p *sched.Proc, delta int64) int64 {
	p.Step()
	out := c.v.Add(delta) - delta
	if p.Tracing() {
		p.Record("fetchadd", c.name, out)
	}
	return out
}

// Read returns the current value.
func (c *Counter) Read(p *sched.Proc) int64 {
	p.Step()
	out := c.v.Load()
	if p.Tracing() {
		p.Record("read", c.name, out)
	}
	return out
}

// TestAndSet is a one-shot test&set bit (a Common2 object, consensus number
// 2): the first caller of Set wins.
type TestAndSet struct {
	name string
	v    atomic.Bool
}

// NewTestAndSet returns an unset bit named name.
func NewTestAndSet(name string) *TestAndSet {
	return &TestAndSet{name: name}
}

// Set atomically sets the bit and reports whether this caller won (the bit
// was previously clear).
func (t *TestAndSet) Set(p *sched.Proc) bool {
	p.Step()
	won := t.v.CompareAndSwap(false, true)
	if p.Tracing() {
		p.Record("testandset", t.name, won)
	}
	return won
}

// Read returns the bit without setting it.
func (t *TestAndSet) Read(p *sched.Proc) bool {
	p.Step()
	out := t.v.Load()
	if p.Tracing() {
		p.Record("read", t.name, out)
	}
	return out
}

// CAS is a general compare&swap register over a comparable value type
// (consensus number +inf). The implementation serializes with a mutex, which
// is linearizable and contention-bounded; in controlled runs the scheduler
// already serializes accesses, and in free mode the critical section is a few
// instructions.
type CAS[T comparable] struct {
	name string
	mu   sync.Mutex
	v    T
}

// NewCAS returns a CAS register named name initialized to init.
func NewCAS[T comparable](name string, init T) *CAS[T] {
	return &CAS[T]{name: name, v: init}
}

// CompareAndSwap installs new if the current value equals old, reporting
// whether it did.
func (c *CAS[T]) CompareAndSwap(p *sched.Proc, old, new T) bool {
	p.Step()
	c.mu.Lock()
	ok := c.v == old
	if ok {
		c.v = new
	}
	c.mu.Unlock()
	if p.Tracing() {
		p.Record("cas", c.name, ok)
	}
	return ok
}

// Load returns the current value.
func (c *CAS[T]) Load(p *sched.Proc) T {
	p.Step()
	c.mu.Lock()
	out := c.v
	c.mu.Unlock()
	if p.Tracing() {
		p.Record("read", c.name, out)
	}
	return out
}

// Store unconditionally sets the value.
func (c *CAS[T]) Store(p *sched.Proc, v T) {
	p.Step()
	c.mu.Lock()
	c.v = v
	c.mu.Unlock()
	if p.Tracing() {
		p.Record("write", c.name, v)
	}
}

// Swap atomically replaces the value and returns the previous one (the
// Common2 swap primitive).
func (c *CAS[T]) Swap(p *sched.Proc, v T) T {
	p.Step()
	c.mu.Lock()
	out := c.v
	c.v = v
	c.mu.Unlock()
	if p.Tracing() {
		p.Record("swap", c.name, out)
	}
	return out
}

// AtomicRegister is a mutex-free atomic multi-writer multi-reader register
// over an integer type: the free-mode fast path for value registers. Where
// Register serializes with a mutex (free in controlled runs, a few
// instructions in free mode), AtomicRegister keeps every access wait-free at
// the hardware level — a single 64-bit atomic load, store or swap, no lock
// acquisition, no writer can block a reader — and never allocates.
//
// Use it for read-mostly shared counters and positions on real-goroutine
// (free mode) hot paths. In controlled runs it behaves identically to
// Register (the scheduler serializes accesses either way). The zero value
// holds 0.
type AtomicRegister[T integer] struct {
	name string
	v    atomic.Uint64
}

// integer is the set of types an AtomicRegister holds: every one converts
// to uint64 and back without loss.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// NewAtomicRegister returns a register initialized to init.
func NewAtomicRegister[T integer](name string, init T) *AtomicRegister[T] {
	r := &AtomicRegister[T]{}
	r.Init(name, init)
	return r
}

// Init (re)initializes an embedded register in place to init, naming it for
// event annotation.
func (r *AtomicRegister[T]) Init(name string, init T) {
	r.name = name
	r.v.Store(uint64(init))
}

// Read returns the current value. It is one atomic step and is lock-free
// even under concurrent writers.
func (r *AtomicRegister[T]) Read(p *sched.Proc) T {
	p.Step()
	out := T(r.v.Load())
	if p.Tracing() {
		p.Record("read", r.name, out)
	}
	return out
}

// Write stores v. It is one atomic step.
func (r *AtomicRegister[T]) Write(p *sched.Proc, v T) {
	p.Step()
	r.v.Store(uint64(v))
	if p.Tracing() {
		p.Record("write", r.name, v)
	}
}

// Swap atomically replaces the value and returns the previous one.
func (r *AtomicRegister[T]) Swap(p *sched.Proc, v T) T {
	p.Step()
	out := T(r.v.Swap(uint64(v)))
	if p.Tracing() {
		p.Record("swap", r.name, out)
	}
	return out
}

// RegisterArray is a fixed-size array of atomic registers, the SWMR/MWMR
// array shape used by the collect-based algorithms (commit-adopt, arbiters).
type RegisterArray[T any] struct {
	regs []Register[T]
}

// NewRegisterArray returns an array of n registers all initialized to init.
func NewRegisterArray[T any](name string, n int, init T) *RegisterArray[T] {
	a := &RegisterArray[T]{regs: make([]Register[T], n)}
	for i := range a.regs {
		a.regs[i].Init(name, init)
	}
	return a
}

// Len returns the number of registers.
func (a *RegisterArray[T]) Len() int { return len(a.regs) }

// Read reads register i.
func (a *RegisterArray[T]) Read(p *sched.Proc, i int) T { return a.regs[i].Read(p) }

// Write writes register i.
func (a *RegisterArray[T]) Write(p *sched.Proc, i int, v T) { a.regs[i].Write(p, v) }

// Collect reads every register in index order (n separate steps; this is a
// collect, not an atomic snapshot, exactly as in the paper's algorithms).
func (a *RegisterArray[T]) Collect(p *sched.Proc) []T {
	out := make([]T, len(a.regs))
	for i := range a.regs {
		out[i] = a.regs[i].Read(p)
	}
	return out
}

// OptArray is a fixed-size array of initially-unset atomic registers (the
// VAL[1..m] / ARB_VAL[1..m] shape of Figure 5).
type OptArray[T any] struct {
	regs []OptRegister[T]
}

// NewOptArray returns an array of n unset registers.
func NewOptArray[T any](name string, n int) *OptArray[T] {
	a := &OptArray[T]{regs: make([]OptRegister[T], n)}
	for i := range a.regs {
		a.regs[i].Init(name)
	}
	return a
}

// Len returns the number of registers.
func (a *OptArray[T]) Len() int { return len(a.regs) }

// Read reads register i.
func (a *OptArray[T]) Read(p *sched.Proc, i int) (T, bool) { return a.regs[i].Read(p) }

// Write writes register i.
func (a *OptArray[T]) Write(p *sched.Proc, i int, v T) { a.regs[i].Write(p, v) }
