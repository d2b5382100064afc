package cluster

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/wire"
)

// FreeConfig tunes the free (real TCP) transport.
type FreeConfig struct {
	// Logf, when non-nil, receives transport-level error logs.
	Logf func(format string, args ...any)

	// dialBackoff paces a down peer's redials: the dial loop ticks at it,
	// and no two attempts to one peer start closer together. Default 250ms.
	dialBackoff time.Duration
	// dialTimeout bounds one dial attempt. Default 500ms.
	dialTimeout time.Duration
	// dialFn overrides the dialer. Tests inject hanging or failing dials
	// to prove the event loop never waits behind one.
	dialFn func(addr string, timeout time.Duration) (net.Conn, error)
}

func (c FreeConfig) dial(addr string) (net.Conn, error) {
	if c.dialFn != nil {
		return c.dialFn(addr, c.dialTimeout)
	}
	return net.DialTimeout("tcp", addr, c.dialTimeout)
}

func (c FreeConfig) withDefaults() FreeConfig {
	if c.dialBackoff <= 0 {
		c.dialBackoff = 250 * time.Millisecond
	}
	if c.dialTimeout <= 0 {
		c.dialTimeout = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// FreeTransport carries cluster messages between processes as RPW1
// replication frames (docs/PROTOCOL.md §5): one write-only outbound TCP
// connection per peer, and an accept loop that decodes inbound one-way
// frames into the local inbox. A failed or timed-out burst write is the
// transport's only death signal: it surfaces to the event loop as a
// kindPeerDown advisory, and the link heals by redial with backoff. The
// protocol's heartbeats and ownerTimeout do the rest of failure
// detection, and its retransmission makes the lossy send contract safe.
type FreeTransport struct {
	self  NodeID
	cfg   FreeConfig
	lis   net.Listener
	peers []*freePeer
	in    inbox
	loop  msgPool     // self-sends' messages
	timer *time.Timer // recv's reused wakeup timer (event-loop goroutine only)

	// drops is wired in by Node.New after construction; the accept and
	// dial goroutines are already running by then, hence the atomic.
	drops atomic.Pointer[dropCounters]

	mu      sync.Mutex
	inConns map[net.Conn]struct{}
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

func (ft *FreeTransport) setDrops(d *dropCounters) { ft.drops.Store(d) }
func (ft *FreeTransport) dropCtrs() *dropCounters  { return ft.drops.Load() }

// NewFreeTransport listens on addrs[self] and starts the per-peer dialers.
// addrs is indexed by NodeID; the peer set is fixed for the transport's
// lifetime.
func NewFreeTransport(self NodeID, addrs []string, cfg FreeConfig) (*FreeTransport, error) {
	lis, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, err
	}
	return newFreeTransport(self, lis, addrs, cfg), nil
}

// newFreeTransport is NewFreeTransport on a listener already bound to
// addrs[self], so a caller can bind every node's port before any transport
// dials one.
func newFreeTransport(self NodeID, lis net.Listener, addrs []string, cfg FreeConfig) *FreeTransport {
	ft := &FreeTransport{
		self:    self,
		cfg:     cfg.withDefaults(),
		lis:     lis,
		inConns: map[net.Conn]struct{}{},
		stop:    make(chan struct{}),
	}
	ft.in.notify = make(chan struct{}, 1)
	for id, addr := range addrs {
		ft.peers = append(ft.peers, &freePeer{ft: ft, id: NodeID(id), addr: addr})
	}
	ft.wg.Add(1)
	go ft.acceptLoop()
	for _, p := range ft.peers {
		if p.id == self {
			continue
		}
		ft.wg.Add(1)
		go p.dialLoop()
	}
	return ft
}

func (ft *FreeTransport) send(_ *sched.Proc, to NodeID, m *message) {
	if to == ft.self {
		own := ft.loop.get()
		own.copyFrom(m)
		ft.in.push(own)
		return
	}
	ft.peers[to].send(m)
}

func (ft *FreeTransport) release(m *message) {
	if m.home != nil {
		m.home.put(m)
	}
}

func (ft *FreeTransport) inject(_ *sched.Proc, m *message) bool { return ft.in.push(m) }

func (ft *FreeTransport) drain(_ *sched.Proc) []*message { return ft.in.closeAndDrain() }

func (ft *FreeTransport) recv(_ *sched.Proc, deadline int64) (*message, bool) {
	for {
		if m := ft.in.tryPop(); m != nil {
			return m, true
		}
		wait := time.Duration(deadline - time.Now().UnixNano())
		if wait <= 0 {
			return nil, false
		}
		// One timer for the transport's lifetime, Reset per wakeup: recv
		// runs thousands of times a second on the event loop, and a fresh
		// NewTimer each wakeup was measurable garbage. Only the event-loop
		// goroutine touches it, and Go ≥1.23 timers make a bare Reset after
		// Stop/fire race-free.
		if ft.timer == nil {
			ft.timer = time.NewTimer(wait)
		} else {
			ft.timer.Reset(wait)
		}
		select {
		case <-ft.in.notify:
			ft.timer.Stop()
		case <-ft.timer.C:
		}
	}
}

func (ft *FreeTransport) tryRecv(_ *sched.Proc) (*message, bool) {
	if m := ft.in.tryPop(); m != nil {
		return m, true
	}
	return nil, false
}

func (ft *FreeTransport) flush(_ *sched.Proc) {
	for _, p := range ft.peers {
		if p.id != ft.self {
			p.flush()
		}
	}
}

func (ft *FreeTransport) now(_ *sched.Proc) int64 { return time.Now().UnixNano() }

func (ft *FreeTransport) close() {
	ft.mu.Lock()
	if ft.closed {
		ft.mu.Unlock()
		return
	}
	ft.closed = true
	for c := range ft.inConns {
		c.Close()
	}
	ft.mu.Unlock()
	close(ft.stop)
	ft.lis.Close()
	for _, p := range ft.peers {
		p.close()
	}
	ft.wg.Wait()
}

// peerDown injects the node-level death notice for peer id.
func (ft *FreeTransport) peerDown(id NodeID) {
	ft.in.push(&message{kind: kindPeerDown, rep: wire.Rep{Peer: uint16(id)}})
}

func (ft *FreeTransport) acceptLoop() {
	defer ft.wg.Done()
	for {
		c, err := ft.lis.Accept()
		if err != nil {
			return
		}
		ft.mu.Lock()
		if ft.closed {
			ft.mu.Unlock()
			c.Close()
			return
		}
		ft.inConns[c] = struct{}{}
		ft.mu.Unlock()
		ft.wg.Add(1)
		go func() {
			defer ft.wg.Done()
			ft.serveInbound(c)
			ft.mu.Lock()
			delete(ft.inConns, c)
			ft.mu.Unlock()
		}()
	}
}

// serveInbound reads one peer's frames into the inbox; the link carries
// nothing back. Each frame is read into the payload buffer of a message
// from the connection's free list and decoded into that message's rep,
// reusing both; the event loop hands the message back once it has handled
// it, so a payload is never overwritten while a decoded string aliases it.
func (ft *FreeTransport) serveInbound(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10) // a burst of frames is one read syscall
	var hdr [wire.HeaderSize]byte
	var pool msgPool
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		h, err := wire.ParseHeader(hdr[:])
		if err != nil || h.Version != wire.Version {
			ft.dropCtrs().inc(dropBadHeader, 1)
			return
		}
		m := pool.get()
		m.buf = resize(m.buf, int(h.Len))
		if _, err := io.ReadFull(br, m.buf); err != nil {
			return
		}
		if !wire.IsRepOpcode(h.Opcode) {
			ft.dropCtrs().inc(dropBadOpcode, 1)
			ft.cfg.Logf("cluster: unexpected opcode 0x%02x from %s", h.Opcode, c.RemoteAddr())
			return
		}
		if err := wire.DecodeRepInto(&m.rep, m.buf); err != nil {
			ft.dropCtrs().inc(dropBadRep, 1)
			ft.cfg.Logf("cluster: bad rep frame from %s: %v", c.RemoteAddr(), err)
			return
		}
		m.kind = h.Opcode
		ft.in.push(m)
	}
}

// maxCoalescedBytes bounds a peer's pending flush buffer: a burst growing
// past it flushes early inline, so memory stays bounded even if the event
// loop sends heavily between flushes.
const maxCoalescedBytes = 256 << 10

// writeTimeout bounds one burst write. Flushes run on the event loop, so a
// peer that accepts but stops reading would otherwise block the whole node
// once the socket buffers fill. flush re-arms the link's write deadline
// only once less than half of it is left, so a stalled write fails after
// writeTimeout/2 to writeTimeout: well above any healthy burst write and
// above ownerTimeout, so only a stalled link trips it. (Re-arming the
// deadline timer on every flush cost measurable CPU per op.) The timed-out
// write retires the link like any other write error.
const writeTimeout = 500 * time.Millisecond

// peerConn is a peer link and the write deadline flush last armed on it,
// which only the event loop touches.
type peerConn struct {
	net.Conn
	deadline time.Time
}

// freePeer is one outbound connection slot: dialed in the background by
// dialLoop (never on the send path), written only by the event loop, and
// re-dialed with backoff after a write fails. Sends encode into a pending
// buffer that flush writes as one syscall per burst.
type freePeer struct {
	ft   *FreeTransport
	id   NodeID
	addr string

	mu      sync.Mutex
	conn    *peerConn
	lastTry time.Time
	closed  bool
	buf     []byte // encoded frames awaiting flush
	frames  int
	spare   []byte // recycled flush buffer
}

// dial makes one backoff-gated connection attempt while the link is down.
// Only dialLoop calls it — the event loop must not block behind a
// black-holed peer — and the network wait happens outside p.mu, so
// send/flush observe at most a pointer read while a dial is hanging.
func (p *freePeer) dial() {
	p.mu.Lock()
	if p.closed || p.conn != nil || time.Since(p.lastTry) < p.ft.cfg.dialBackoff {
		p.mu.Unlock()
		return
	}
	p.lastTry = time.Now()
	p.mu.Unlock()
	c, err := p.ft.cfg.dial(p.addr)
	if err != nil {
		return
	}
	p.mu.Lock()
	if !p.closed && p.conn == nil {
		p.conn, c = &peerConn{Conn: c}, nil
	}
	p.mu.Unlock()
	if c != nil {
		c.Close() // lost a race with close(); don't leak the socket
	}
}

// drop retires a failed conn and emits the death notice (once per conn).
func (p *freePeer) drop(c *peerConn) {
	p.mu.Lock()
	mine := p.conn == c
	if mine {
		p.conn = nil
	}
	p.mu.Unlock()
	c.Close()
	if mine {
		p.ft.peerDown(p.id)
	}
}

// send encodes m onto the pending buffer; flush writes the burst. Nothing
// here waits on the network.
func (p *freePeer) send(m *message) {
	p.mu.Lock()
	if p.buf == nil && p.spare != nil {
		p.buf, p.spare = p.spare[:0], nil
	}
	n := len(p.buf)
	buf, err := wire.AppendRepFrame(p.buf, m.kind, &m.rep)
	if err != nil {
		// Encode refusal: drop just this message, keep the burst. The node
		// bounds its frames by encoded size, so this is a backstop.
		p.buf = buf[:n]
		p.mu.Unlock()
		p.ft.dropCtrs().inc(dropUnencodable, 1)
		p.ft.cfg.Logf("cluster: dropping unencodable %s frame to node %d: %v",
			opcodeNames[m.kind], p.id, err)
		return
	}
	p.buf = buf
	p.frames++
	big := len(p.buf) >= maxCoalescedBytes
	p.mu.Unlock()
	if big {
		p.flush()
	}
}

// flush writes the pending burst as one syscall, bounded by writeTimeout.
// With no live connection the burst is dropped and counted — the peer is
// unreachable and the protocol retransmits. A write that fails or times
// out retires the connection and reports the peer down.
func (p *freePeer) flush() {
	p.mu.Lock()
	buf, frames := p.buf, p.frames
	c := p.conn
	p.buf, p.frames = nil, 0
	p.mu.Unlock()
	if frames == 0 {
		p.reclaim(buf)
		return
	}
	if c == nil {
		p.ft.dropCtrs().inc(dropNoConn, int64(frames))
		p.reclaim(buf)
		return
	}
	var err error
	if now := time.Now(); c.deadline.Sub(now) < writeTimeout/2 {
		c.deadline = now.Add(writeTimeout)
		err = c.SetWriteDeadline(c.deadline)
	}
	if err == nil {
		_, err = c.Write(buf)
	}
	p.reclaim(buf)
	if err != nil {
		if !errors.Is(err, net.ErrClosed) {
			p.ft.cfg.Logf("cluster: send to node %d: %v", p.id, err)
		}
		p.drop(c)
	}
}

// reclaim stashes a flushed buffer for the next burst.
func (p *freePeer) reclaim(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	if p.buf == nil && cap(buf) > cap(p.spare) {
		p.spare = buf[:0]
	}
	p.mu.Unlock()
}

// dialLoop keeps the link up: an eager dial, then a redial attempt on
// every dialBackoff tick while the link is down.
func (p *freePeer) dialLoop() {
	defer p.ft.wg.Done()
	p.dial()
	t := time.NewTicker(p.ft.cfg.dialBackoff)
	defer t.Stop()
	for {
		select {
		case <-p.ft.stop:
			return
		case <-t.C:
		}
		p.dial()
	}
}

func (p *freePeer) close() {
	p.mu.Lock()
	c := p.conn
	p.conn = nil
	p.closed = true
	p.buf, p.spare, p.frames = nil, nil, 0
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// inbox is the unbounded local delivery queue: pushes never block or drop
// (self-sends and client injections must be reliable) until closeAndDrain
// seals it at shutdown, pops support the event loop's deadline. The queue
// reuses its array (fifo), so a steady push/pop stream stops allocating
// once the array fits a burst.
type inbox struct {
	mu     sync.Mutex
	q      fifo[*message]
	closed bool
	notify chan struct{} // cap 1
}

func (in *inbox) push(m *message) bool {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	in.q.push(m)
	in.mu.Unlock()
	select {
	case in.notify <- struct{}{}:
	default:
	}
	return true
}

// closeAndDrain seals the inbox and hands back whatever was queued: the
// mutex makes "push succeeded" and "message in the drained tail" the same
// event, so shutdown cannot strand a racing client call.
func (in *inbox) closeAndDrain() []*message {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = true
	q := in.q.q[in.q.head:]
	in.q = fifo[*message]{}
	return q
}

func (in *inbox) tryPop() *message {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.q.len() == 0 {
		return nil
	}
	return in.q.pop()
}
