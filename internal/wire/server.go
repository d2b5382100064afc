package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/service"
)

// ServerConfig tunes a wire Server. The zero value gets sensible defaults.
type ServerConfig struct {
	// AcceptLoops is the number of concurrent accept goroutines on the
	// listener (per-core accept so a connection storm never serializes on
	// one loop). Default GOMAXPROCS.
	AcceptLoops int
	// Logf, when non-nil, receives connection-level error logs.
	Logf func(format string, args ...any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.AcceptLoops <= 0 {
		c.AcceptLoops = runtime.GOMAXPROCS(0)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Backend is what a Server serves: the op-execution surface shared by
// *service.Store (single-node serving, PR 8) and internal/cluster's front
// end (which routes each op to its shard owner). The method contracts are
// service.Store's: DoBatch answers index-aligned results, errors are the
// typed service errors (mapped to wire codes by ErrCodeOf).
type Backend interface {
	Do(ctx context.Context, op service.Op) (service.Result, error)
	DoBatch(ctx context.Context, ops []service.Op) ([]service.Result, error)
	Stats() service.Stats
}

// Server serves the wire protocol over a listener, translating frames into
// backend Do/DoBatch calls. Decoded batch frames feed the store's per-shard
// batch windows directly — the transport adds framing, not an extra
// queueing layer.
type Server struct {
	store Backend
	cfg   ServerConfig

	mu     sync.Mutex
	lis    []net.Listener
	conns  map[*serverConn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewServer builds a Server over a backend.
func NewServer(store Backend, cfg ServerConfig) *Server {
	return &Server{store: store, cfg: cfg.withDefaults(), conns: map[*serverConn]struct{}{}}
}

// Serve accepts connections on lis until the listener fails or Shutdown is
// called, spawning cfg.AcceptLoops concurrent acceptors. It blocks; run it
// in a goroutine per listener.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return net.ErrClosed
	}
	s.lis = append(s.lis, lis)
	s.mu.Unlock()

	errs := make(chan error, s.cfg.AcceptLoops)
	for i := 0; i < s.cfg.AcceptLoops; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				c, err := lis.Accept()
				if err != nil {
					errs <- err
					return
				}
				sc := s.track(c)
				if sc == nil {
					c.Close()
					return
				}
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					sc.serve()
					s.untrack(sc)
				}()
			}
		}()
	}
	err := <-errs
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

func (s *Server) track(c net.Conn) *serverConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	sc := &serverConn{s: s, c: c}
	s.conns[sc] = struct{}{}
	return sc
}

func (s *Server) untrack(sc *serverConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// Shutdown stops accepting, then waits for every connection's in-flight
// requests to be answered and their readers to exit. If ctx expires first,
// remaining connections are force-closed before waiting again. The store
// itself is not closed — the caller owns that ordering (drain the
// transport, then the store).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for _, l := range s.lis {
		l.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sc := range s.conns {
			sc.c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// serverConn is one accepted connection: a reader loop that decodes and
// dispatches frames, handler goroutines that run them against the backend,
// and a writer loop that encodes the answers (batching flushes while the
// response channel has backlog).
//
// Handlers are reused: one that has answered parks on jobs for the next
// frame, and the reader spawns a new one only when none is parked, so the
// pipeline depth a client sees is the depth it offers. Idle handlers live
// as long as the connection.
type serverConn struct {
	s    *Server
	c    net.Conn
	out  chan response // answers, encoded by the writer
	jobs chan job      // unbuffered: a send lands only in a parked handler

	// inflight tracks dispatched-but-unanswered request frames; only the
	// reader Adds, so the reader may Wait to implement the drain fence.
	inflight sync.WaitGroup
	// handlers tracks handler goroutines, parked or busy.
	handlers sync.WaitGroup
	// writeFailed marks the writer dead (it keeps draining out so handlers
	// never block, but discards).
	writeFailed atomic.Bool
}

// job is one dispatched request frame: an op, a batch or a stats request.
type job struct {
	opcode byte
	reqid  uint64
	op     service.Op
	ops    []service.Op
}

// response is one answer on its way to the writer, which encodes it
// straight into its bufio.Writer.
type response struct {
	opcode  byte
	reqid   uint64
	code    byte // non-zero: an error response carrying msg
	msg     string
	res     service.Result
	results []service.Result
	raw     []byte // the stats document
}

func errResponse(opcode byte, reqid uint64, code byte, msg string) response {
	return response{opcode: opcode, reqid: reqid, code: code, msg: msg}
}

// appendFrame encodes r as one response frame.
func (r *response) appendFrame(dst []byte) []byte {
	switch {
	case r.code != 0:
		return AppendErrorFrame(dst, r.opcode, r.reqid, r.code, r.msg)
	case r.opcode == OpcodeOp:
		return AppendResultFrame(dst, r.reqid, r.res)
	case r.opcode == OpcodeBatch:
		return AppendResultsFrame(dst, r.reqid, r.results)
	case r.opcode == OpcodeStats:
		return AppendRawFrame(dst, OpcodeStats, FlagResp, r.reqid, r.raw)
	default: // ping and drain answers carry no payload
		return AppendEmptyFrame(dst, r.opcode, FlagResp, r.reqid)
	}
}

func (sc *serverConn) serve() {
	defer sc.c.Close()
	// The writer flushes only when it finds out empty, so a backlog of up
	// to 64 answers shares one flush instead of making handlers wait.
	sc.out = make(chan response, 64)
	sc.jobs = make(chan job)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sc.writeLoop()
	}()

	err := sc.readLoop()
	// Let every dispatched job answer (or discard) and every handler exit
	// before the response channel closes; then the writer exits and the
	// conn closes. Handlers never outlive serve, so a dropped conn leaks
	// nothing.
	sc.inflight.Wait()
	close(sc.jobs)
	sc.handlers.Wait()
	close(sc.out)
	<-writerDone
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		sc.s.cfg.Logf("wire: conn %s: %v", sc.c.RemoteAddr(), err)
	}
}

// send hands an answer to the writer. It never blocks indefinitely against
// a dead writer: the writer keeps consuming (and discarding) until the
// channel closes.
func (sc *serverConn) send(r response) { sc.out <- r }

func (sc *serverConn) writeLoop() {
	bw := bufio.NewWriterSize(sc.c, 64<<10)
	for r := range sc.out {
		if sc.writeFailed.Load() {
			continue
		}
		_, err := bw.Write(r.appendFrame(bw.AvailableBuffer()))
		if err == nil && len(sc.out) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			sc.writeFailed.Store(true)
		}
	}
}

// readLoop decodes frames until EOF, a framing error, or a fatal protocol
// error. Request-level errors are answered in-band; fatal ones are
// answered best-effort and then the loop returns, closing the connection
// (docs/PROTOCOL.md §4).
func (sc *serverConn) readLoop() error {
	// One buffered reader per connection: a burst of frames costs one read
	// syscall, not two per frame.
	br := bufio.NewReaderSize(sc.c, 64<<10)
	var hdr [HeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		h, err := ParseHeader(hdr[:])
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				sc.send(errResponse(hdr[5], getU64(hdr[8:]), ErrCodeTooLarge, "payload exceeds MaxPayload"))
			}
			return err
		}
		if h.Version != Version {
			sc.send(errResponse(h.Opcode, h.ReqID, ErrCodeVersion,
				fmt.Sprintf("version %d unsupported (want %d)", h.Version, Version)))
			return ErrVersion
		}
		// Op-bearing payloads are read into a FRESH buffer on purpose: the
		// decoded strings alias it and flow into the state machine, so its
		// lifetime belongs to the garbage collector, not a pool.
		var payload []byte
		if h.Len > 0 {
			payload = make([]byte, h.Len)
			if _, err := io.ReadFull(br, payload); err != nil {
				return err
			}
		}
		switch h.Opcode {
		case OpcodeOp:
			op, n, err := DecodeOp(payload)
			if err != nil || n != len(payload) {
				sc.send(errResponse(h.Opcode, h.ReqID, ErrCodeBadRequest, "malformed op payload"))
				continue
			}
			sc.dispatch(job{opcode: OpcodeOp, reqid: h.ReqID, op: op})
		case OpcodeBatch:
			ops, err := DecodeBatch(payload, make([]service.Op, 0, 16))
			if err != nil {
				sc.send(errResponse(h.Opcode, h.ReqID, ErrCodeBadRequest, "malformed batch payload"))
				continue
			}
			sc.dispatch(job{opcode: OpcodeBatch, reqid: h.ReqID, ops: ops})
		case OpcodeStats:
			sc.dispatch(job{opcode: OpcodeStats, reqid: h.ReqID})
		case OpcodePing:
			// The no-op round trip (§3.7): answered inline — a ping measures
			// the read-dispatch-write path, not the store.
			sc.send(response{opcode: OpcodePing, reqid: h.ReqID})
		case OpcodeDrain:
			// The pipeline fence (§3.5): only the reader Adds to inflight,
			// so waiting here is race-free — every previously dispatched
			// request has answered (its response is queued ahead of ours)
			// before the drain response is sent.
			sc.inflight.Wait()
			sc.send(response{opcode: OpcodeDrain, reqid: h.ReqID})
		default:
			sc.send(errResponse(h.Opcode, h.ReqID, ErrCodeOpcode,
				fmt.Sprintf("unknown opcode 0x%02x", h.Opcode)))
		}
	}
}

// dispatch hands j to a parked handler, or to a new one if none is parked.
func (sc *serverConn) dispatch(j job) {
	sc.inflight.Add(1)
	select {
	case sc.jobs <- j:
	default:
		sc.handlers.Add(1)
		go sc.handle(j)
	}
}

// handle runs j, then every job handed to it while parked, until serve
// closes jobs.
func (sc *serverConn) handle(j job) {
	defer sc.handlers.Done()
	for ok := true; ok; j, ok = <-sc.jobs {
		sc.send(sc.run(j))
		sc.inflight.Done()
	}
}

// run executes one job against the backend and returns its answer.
func (sc *serverConn) run(j job) response {
	ctx := context.Background()
	var err error
	switch j.opcode {
	case OpcodeOp:
		var res service.Result
		if res, err = sc.s.store.Do(ctx, j.op); err == nil {
			return response{opcode: OpcodeOp, reqid: j.reqid, res: res}
		}
	case OpcodeBatch:
		var results []service.Result
		if results, err = sc.s.store.DoBatch(ctx, j.ops); err == nil {
			return response{opcode: OpcodeBatch, reqid: j.reqid, results: results}
		}
	default: // OpcodeStats
		var doc []byte
		if doc, err = json.Marshal(sc.s.store.Stats()); err == nil {
			return response{opcode: OpcodeStats, reqid: j.reqid, raw: doc}
		}
		return errResponse(OpcodeStats, j.reqid, ErrCodeInternal, err.Error())
	}
	return errResponse(j.opcode, j.reqid, ErrCodeOf(err), err.Error())
}
