package cluster

import (
	"strings"
	"sync"
	"unsafe"

	"repro/internal/service"
	"repro/internal/wire"
)

// fifo is a queue that reuses its array: pops advance head, the array is
// reused from its start each time the queue drains, and a queue that never
// quite drains slides its backlog over the popped half instead of growing
// with the values that passed through it.
type fifo[T any] struct {
	q    []T // q[head:] is the queue
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }

// at returns the i-th queued value, 0 being the oldest.
func (f *fifo[T]) at(i int) *T { return &f.q[f.head+i] }

func (f *fifo[T]) push(v T) {
	if len(f.q) == cap(f.q) && f.head >= len(f.q)/2 {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, v)
}

// pop removes and returns the oldest value; the queue must not be empty.
func (f *fifo[T]) pop() T {
	v := f.q[f.head]
	var zero T
	f.q[f.head] = zero
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v
}

// resize returns s with length n, in s's own array when it has the room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// msgPool is a free list of messages, safe from any goroutine. The free
// transport takes a message from one for every inbound frame (each
// connection has its own) and every self-send, and the event loop gives it
// back once handled (Transport.release).
type msgPool struct {
	mu   sync.Mutex
	free []*message
}

// A pool keeps at most maxPooledMsgs messages, and none whose payload
// buffer grew past maxKeptPayload: one oversized frame is left to the
// garbage collector.
const (
	maxPooledMsgs  = 64
	maxKeptPayload = 64 << 10
)

func (mp *msgPool) get() *message {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	if n := len(mp.free); n > 0 {
		m := mp.free[n-1]
		mp.free = mp.free[:n-1]
		return m
	}
	return &message{home: mp}
}

func (mp *msgPool) put(m *message) {
	if cap(m.buf) > maxKeptPayload {
		m.buf, m.rep = nil, wire.Rep{}
	}
	mp.mu.Lock()
	if len(mp.free) < maxPooledMsgs {
		mp.free = append(mp.free, m)
	}
	mp.mu.Unlock()
}

// opArena hands out copies of ops and strings in storage that no frame
// aliases and nothing writes twice: ops go into chunks of arenaOps slots
// and strings into chunks of arenaBytes bytes, so a kept op or value costs
// a fraction of a heap object. Each slot and byte is written once, when it
// is handed out — the log keeps these ops, virtual frames alias the log,
// and clients keep the values. A chunk is collected once nothing it holds
// is referenced, the stores' keys and values and the clients' results
// included.
type opArena struct {
	ops   []service.Op // unused tail of the current op chunk
	bytes []byte       // unused tail of the current string chunk
}

const (
	arenaOps   = 64
	arenaBytes = 4 << 10
)

// slots hands out n fresh op slots (nil for n = 0); a run of arenaOps or
// more gets an array of its own.
func (a *opArena) slots(n int) []service.Op {
	switch {
	case n == 0:
		return nil
	case n >= arenaOps:
		return make([]service.Op, n)
	case n > len(a.ops):
		a.ops = make([]service.Op, arenaOps)
	}
	s := a.ops[:n:n]
	a.ops = a.ops[n:]
	return s
}

// copyOps returns a copy of ops whose strings are copies too.
func (a *opArena) copyOps(ops []service.Op) []service.Op {
	out := a.slots(len(ops))
	for i, op := range ops {
		op.Key, op.Val, op.Old = a.str(op.Key), a.str(op.Val), a.str(op.Old)
		out[i] = op
	}
	return out
}

// str returns a copy of s; one longer than a quarter chunk is copied on
// its own.
func (a *opArena) str(s string) string {
	switch {
	case s == "":
		return ""
	case len(s) > arenaBytes/4:
		return strings.Clone(s)
	case len(s) > len(a.bytes):
		a.bytes = make([]byte, arenaBytes)
	}
	b := a.bytes[:len(s):len(s)]
	a.bytes = a.bytes[len(s):]
	copy(b, s)
	return unsafe.String(&b[0], len(b))
}
