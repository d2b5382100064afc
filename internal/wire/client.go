package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/service"
)

// ErrConnClosed is returned by calls on a Conn whose transport has failed
// or been closed; in-flight calls fail with the underlying read error.
var ErrConnClosed = errors.New("wire: connection closed")

// Conn is a pipelined client connection: any number of goroutines may
// issue Do/DoBatch/Stats concurrently, each call is stamped with a
// connection-local request ID, and a single reader goroutine correlates
// the (possibly reordered) responses back to their callers. N goroutines
// sharing one Conn give a pipeline depth of N with no further ceremony.
//
// A call costs no garbage of its own: requests are encoded into one buffer
// under wmu, and call records are recycled through free once answered.
type Conn struct {
	c net.Conn

	wmu  sync.Mutex // serializes frame writes and guards wbuf
	wbuf []byte     // request encode buffer, reused by every call

	pmu     sync.Mutex
	nextID  uint64
	pending map[uint64]*call
	free    []*call // answered calls, ready for reuse
	readErr error   // set once the reader exits; nil until then
}

// maxKeptBuf bounds the encode buffer a Conn keeps between calls: one
// oversized batch frame is left to the garbage collector.
const maxKeptBuf = 64 << 10

// call is one in-flight request awaiting its response frame. Whoever takes
// it out of pending — the reader with the response, or the reader failing
// every pending call as it exits — signals done exactly once; done is
// buffered, so the signal never blocks and a call is reusable once its
// caller has read it. A call abandoned after a failed write may still be
// signalled late, so it is never reused.
type call struct {
	done    chan struct{}
	res     service.Result
	results []service.Result // batch responses (appended into the caller's slice)
	raw     []byte           // stats responses
	err     error
}

// Dial connects to a wire server at addr (host:port).
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewConn(nc), nil
}

// NewConn wraps an established transport (any net.Conn — tests use
// net.Pipe) as a wire client and starts its reader.
func NewConn(nc net.Conn) *Conn {
	c := &Conn{c: nc, pending: map[uint64]*call{}}
	go c.readLoop()
	return c
}

// register takes a call record (a recycled one when available) and parks
// it under a fresh request ID. results, when non-nil, is the caller's slice
// for a batch response's decoded results.
func (c *Conn) register(results []service.Result) (uint64, *call, error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.readErr != nil {
		return 0, nil, c.readErr
	}
	var cl *call
	if n := len(c.free); n > 0 {
		cl = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		cl = &call{done: make(chan struct{}, 1)}
	}
	cl.results = results
	c.nextID++
	id := c.nextID
	c.pending[id] = cl
	return id, cl, nil
}

// release returns an answered call for reuse.
func (c *Conn) release(cl *call) {
	*cl = call{done: cl.done}
	c.pmu.Lock()
	c.free = append(c.free, cl)
	c.pmu.Unlock()
}

// roundTrip registers a call, encodes its request frame with encode into
// the connection's buffer, writes it and blocks for the response, which it
// returns as a copy of the answered call before releasing the record. A
// call whose write failed is abandoned for good instead: its ID leaves
// pending, so a late response to it is dropped, and the record is never
// reused, because the reader may have signalled it in the meantime.
func (c *Conn) roundTrip(results []service.Result, encode func(dst []byte, id uint64) []byte) (call, error) {
	id, cl, err := c.register(results)
	if err != nil {
		return call{}, err
	}
	c.wmu.Lock()
	c.wbuf = encode(c.wbuf[:0], id)
	_, err = c.c.Write(c.wbuf)
	if cap(c.wbuf) > maxKeptBuf {
		c.wbuf = nil
	}
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return call{}, err
	}
	<-cl.done
	out := *cl
	c.release(cl)
	return out, out.err
}

// Do issues one command and blocks for its result. The result's Val is an
// owned string (the response buffer is never recycled), so callers may
// retain it freely.
func (c *Conn) Do(op service.Op) (service.Result, error) {
	if !opSizeOK(op) {
		return service.Result{}, ErrBadFrame
	}
	a, err := c.roundTrip(nil, func(dst []byte, id uint64) []byte {
		dst, _ = AppendOpFrame(dst, id, op)
		return dst
	})
	return a.res, err
}

// DoBatch issues ops as one batch frame and blocks for the index-aligned
// results, appended into results (pass a reused slice to amortize).
func (c *Conn) DoBatch(ops []service.Op, results []service.Result) ([]service.Result, error) {
	if !batchSizeOK(ops) {
		return results, ErrBadFrame
	}
	a, err := c.roundTrip(results, func(dst []byte, id uint64) []byte {
		dst, _ = AppendBatchFrame(dst, id, ops)
		return dst
	})
	if err != nil {
		return results, err
	}
	if len(a.results)-len(results) != len(ops) {
		return results, fmt.Errorf("wire: batch answered %d results for %d ops",
			len(a.results)-len(results), len(ops))
	}
	return a.results, nil
}

// Stats fetches the server's stats snapshot, JSON-decoded into v
// (typically a *service.Stats).
func (c *Conn) Stats(v any) error {
	a, err := c.roundTrip(nil, emptyFrame(OpcodeStats))
	if err != nil {
		return err
	}
	return json.Unmarshal(a.raw, v)
}

// emptyFrame returns the encoder of a payload-less request frame.
func emptyFrame(opcode byte) func([]byte, uint64) []byte {
	return func(dst []byte, id uint64) []byte { return AppendEmptyFrame(dst, opcode, 0, id) }
}

// Ping issues the no-op round trip (docs/PROTOCOL.md §3.7) and blocks for
// the empty response: a keepalive and reachability probe that exercises
// the server's full read-dispatch-write path. cmd/loadgen pings its first
// connection to check that the address speaks RPW1.
func (c *Conn) Ping() error {
	_, err := c.roundTrip(nil, emptyFrame(OpcodePing))
	return err
}

// Drain sends the pipeline fence and blocks until the server confirms that
// every request frame sent on this connection before the fence has been
// answered (docs/PROTOCOL.md §3.5). Call it before Close for a clean
// shutdown.
func (c *Conn) Drain() error {
	_, err := c.roundTrip(nil, emptyFrame(OpcodeDrain))
	return err
}

// Close tears the connection down; in-flight calls fail.
func (c *Conn) Close() error { return c.c.Close() }

// readLoop consumes response frames and completes their calls. On any
// transport or framing error it fails every pending and future call.
func (c *Conn) readLoop() {
	err := c.read()
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		err = ErrConnClosed
	}
	c.c.Close()
	c.pmu.Lock()
	c.readErr = err
	for id, cl := range c.pending {
		delete(c.pending, id)
		cl.err = err
		cl.done <- struct{}{}
	}
	c.pmu.Unlock()
}

func (c *Conn) read() error {
	br := bufio.NewReaderSize(c.c, 64<<10) // a burst of responses is one read syscall
	var hdr [HeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		h, err := ParseHeader(hdr[:])
		if err != nil {
			return err
		}
		if !h.IsResp() {
			return ErrBadFrame
		}
		// Response payloads are fresh buffers: decoded result Vals alias
		// them and are handed to callers as owned strings.
		var payload []byte
		if h.Len > 0 {
			payload = make([]byte, h.Len)
			if _, err := io.ReadFull(br, payload); err != nil {
				return err
			}
		}
		c.pmu.Lock()
		cl, ok := c.pending[h.ReqID]
		delete(c.pending, h.ReqID)
		c.pmu.Unlock()
		if !ok {
			// A response to an abandoned (failed-write) request: ignore.
			continue
		}
		cl.err = c.complete(h, payload, cl)
		cl.done <- struct{}{}
	}
}

// complete decodes one response payload into its call.
func (c *Conn) complete(h Header, payload []byte, cl *call) error {
	if h.IsError() {
		werr, err := DecodeError(payload)
		if err != nil {
			return err
		}
		return werr
	}
	switch h.Opcode {
	case OpcodeOp:
		res, n, err := DecodeResult(payload)
		if err != nil || n != len(payload) {
			return ErrBadFrame
		}
		cl.res = res
	case OpcodeBatch:
		results, err := DecodeResults(payload, cl.results)
		if err != nil {
			return err
		}
		cl.results = results
	case OpcodeStats:
		cl.raw = payload
	case OpcodeDrain, OpcodePing:
		// No payload.
	default:
		return ErrBadFrame
	}
	return nil
}
