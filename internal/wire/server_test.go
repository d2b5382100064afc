package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
)

// startServer boots a small store and a wire server on a loopback
// listener, returning the dial address. Cleanup drains the transport and
// closes the store.
func startServer(t *testing.T, cfg service.Config) string {
	t.Helper()
	store := service.New(cfg)
	t.Cleanup(func() {
		if err := store.Close(); err != nil && !errors.Is(err, service.ErrClosed) {
			t.Errorf("store close: %v", err)
		}
	})
	return serveT(t, store)
}

// serveT serves be on a loopback listener, returning the dial address.
// Cleanup drains the transport; the backend is the caller's.
func serveT(t *testing.T, be Backend) string {
	t.Helper()
	srv := NewServer(be, ServerConfig{AcceptLoops: 2, Logf: t.Logf})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return lis.Addr().String()
}

func dialT(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerOpRoundTrip(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 2})
	c := dialT(t, addr)

	if res, err := c.Do(service.Op{Kind: service.OpPut, Key: "k", Val: "v1"}); err != nil || !res.OK {
		t.Fatalf("put: %+v, %v", res, err)
	}
	if res, err := c.Do(service.Op{Kind: service.OpGet, Key: "k"}); err != nil || !res.OK || res.Val != "v1" {
		t.Fatalf("get: %+v, %v", res, err)
	}
	if res, err := c.Do(service.Op{Kind: service.OpCAS, Key: "k", Old: "v1", Val: "v2"}); err != nil || !res.OK {
		t.Fatalf("cas: %+v, %v", res, err)
	}
	if res, err := c.Do(service.Op{Kind: service.OpCAS, Key: "k", Old: "v1", Val: "v3"}); err != nil || res.OK {
		t.Fatalf("failed cas should report ok=false: %+v, %v", res, err)
	}
	if res, err := c.Do(service.Op{Kind: service.OpGet, Key: "missing"}); err != nil || res.OK || res.Val != "" {
		t.Fatalf("missing get: %+v, %v", res, err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestServerBatchAndStats(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 2})
	c := dialT(t, addr)

	const n = 200
	ops := make([]service.Op, n)
	for i := range ops {
		ops[i] = service.Op{Kind: service.OpPut, Key: fmt.Sprintf("k%03d", i%16), Val: fmt.Sprintf("v%d", i)}
	}
	results, err := c.DoBatch(ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if !r.OK {
			t.Fatalf("put %d not ok", i)
		}
	}

	var stats service.Stats
	if err := c.Stats(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.TotalOps < n {
		t.Fatalf("stats.TotalOps = %d, want >= %d", stats.TotalOps, n)
	}
}

// TestServerPipelining hammers one connection from many goroutines —
// multiplexed, out-of-order completion — and checks every result against
// a per-key model via CAS chains.
func TestServerPipelining(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 4})
	c := dialT(t, addr)

	const workers, perWorker = 16, 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("w%02d", w)
			for i := 0; i < perWorker; i++ {
				val := fmt.Sprintf("%d", i)
				if res, err := c.Do(service.Op{Kind: service.OpPut, Key: key, Val: val}); err != nil || !res.OK {
					errs <- fmt.Errorf("w%d put %d: %+v %v", w, i, res, err)
					return
				}
				if res, err := c.Do(service.Op{Kind: service.OpGet, Key: key}); err != nil || res.Val != val {
					errs <- fmt.Errorf("w%d get %d: got %q want %q (%v)", w, i, res.Val, val, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainFence pins PROTOCOL.md §3.5 with raw frames: the drain
// response must be the last of the responses to everything sent before
// it.
func TestDrainFence(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	var buf []byte
	const ops = 8
	for i := uint64(1); i <= ops; i++ {
		buf, err = AppendOpFrame(buf, i, service.Op{Kind: service.OpPut, Key: "k", Val: "v"})
		if err != nil {
			t.Fatal(err)
		}
	}
	buf = AppendEmptyFrame(buf, OpcodeDrain, 0, 99)
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}

	seen := 0
	for {
		h, payload := readFrameT(t, nc)
		if h.Opcode == OpcodeDrain {
			if seen != ops {
				t.Fatalf("drain response arrived after %d/%d op responses", seen, ops)
			}
			return
		}
		if h.Opcode != OpcodeOp || h.IsError() {
			t.Fatalf("unexpected frame %+v payload %x", h, payload)
		}
		seen++
	}
}

// slowBackend answers every op a millisecond late, so a fence that did not
// wait would overtake the ops sent before it.
type slowBackend struct{ *service.Store }

func (b slowBackend) Do(ctx context.Context, op service.Op) (service.Result, error) {
	time.Sleep(time.Millisecond)
	return b.Store.Do(ctx, op)
}

// TestDrainFenceReusedHandlers: the fence still waits for every op sent
// before it once the connection's handlers are parked ones being reused,
// round after round, against a backend slow enough to lose the race.
func TestDrainFenceReusedHandlers(t *testing.T) {
	store := service.New(service.Config{Shards: 2})
	defer store.Close()
	nc, err := net.Dial("tcp", serveT(t, slowBackend{store}))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const ops = 16
	for round := 0; round < 4; round++ {
		var buf []byte
		for i := uint64(1); i <= ops; i++ {
			buf, err = AppendOpFrame(buf, i, service.Op{Kind: service.OpPut, Key: fmt.Sprintf("k%d", i), Val: "v"})
			if err != nil {
				t.Fatal(err)
			}
		}
		buf = AppendEmptyFrame(buf, OpcodeDrain, 0, 99)
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		for seen := 0; ; seen++ {
			h, payload := readFrameT(t, nc)
			if h.Opcode == OpcodeDrain {
				if seen != ops {
					t.Fatalf("round %d: drain response arrived after %d/%d op responses", round, seen, ops)
				}
				break
			}
			if h.Opcode != OpcodeOp || h.IsError() {
				t.Fatalf("round %d: unexpected frame %+v payload %x", round, h, payload)
			}
		}
	}
}

// readFrameT reads one raw frame off nc.
func readFrameT(t *testing.T, nc net.Conn) (Header, []byte) {
	t.Helper()
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		t.Fatalf("read header: %v", err)
	}
	h, err := ParseHeader(hdr[:])
	if err != nil {
		t.Fatalf("parse header: %v", err)
	}
	payload := make([]byte, h.Len)
	if _, err := io.ReadFull(nc, payload); err != nil {
		t.Fatalf("read payload: %v", err)
	}
	return h, payload
}

// TestErrorMappingClosed: ops against a draining store come back as code
// 4 and unwrap to service.ErrClosed through the client (PROTOCOL.md §4).
func TestErrorMappingClosed(t *testing.T) {
	store := service.New(service.Config{Shards: 1})
	srv := NewServer(store, ServerConfig{AcceptLoops: 1})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(service.Op{Kind: service.OpPut, Key: "k", Val: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = c.Do(service.Op{Kind: service.OpPut, Key: "k", Val: "v2"})
	if !errors.Is(err, service.ErrClosed) {
		t.Fatalf("want ErrClosed through the wire, got %v", err)
	}
	var werr *Error
	if !errors.As(err, &werr) || werr.Code != ErrCodeClosed {
		t.Fatalf("want wire.Error code %d, got %v", ErrCodeClosed, err)
	}
}

// TestErrorMappingSaturated: a drop rule on the queue.send fault point
// surfaces as code 2 / service.ErrSaturated across the wire.
func TestErrorMappingSaturated(t *testing.T) {
	faults := fault.NewSet()
	addr := startServer(t, service.Config{Shards: 1, Faults: faults})
	c := dialT(t, addr)

	faults.Arm(service.FaultQueueSend, fault.Rule{Action: fault.Drop, Count: -1})
	_, err := c.Do(service.Op{Kind: service.OpPut, Key: "k", Val: "v"})
	faults.Disarm(service.FaultQueueSend)
	if !errors.Is(err, service.ErrSaturated) {
		t.Fatalf("want ErrSaturated through the wire, got %v", err)
	}
	// The connection must remain usable after a non-fatal error (§4).
	if res, err := c.Do(service.Op{Kind: service.OpPut, Key: "k", Val: "v"}); err != nil || !res.OK {
		t.Fatalf("post-error put: %+v, %v", res, err)
	}
}

// TestBadRequestPayload: a frame whose payload fails to decode gets code
// 1 and leaves the connection usable (PROTOCOL.md §4).
func TestBadRequestPayload(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// A 3-byte op payload: truncated mid-structure.
	frame := AppendHeader(nil, Header{Version: Version, Opcode: OpcodeOp, ReqID: 7, Len: 3})
	frame = append(frame, 0x00, 0x01, 0x02)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	h, payload := readFrameT(t, nc)
	if !h.IsError() || h.ReqID != 7 {
		t.Fatalf("want error response for reqid 7, got %+v", h)
	}
	werr, err := DecodeError(payload)
	if err != nil || werr.Code != ErrCodeBadRequest {
		t.Fatalf("want code %d, got %+v, %v", ErrCodeBadRequest, werr, err)
	}

	// Still usable.
	good, err := AppendOpFrame(nil, 8, service.Op{Kind: service.OpPut, Key: "k", Val: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(good); err != nil {
		t.Fatal(err)
	}
	if h, _ := readFrameT(t, nc); h.ReqID != 8 || h.IsError() {
		t.Fatalf("post-error op failed: %+v", h)
	}
}

// TestUnknownOpcode: code 6, connection stays usable (PROTOCOL.md §4/§6).
func TestUnknownOpcode(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	if _, err := nc.Write(AppendEmptyFrame(nil, 0x7F, 0, 1)); err != nil {
		t.Fatal(err)
	}
	h, payload := readFrameT(t, nc)
	werr, err := DecodeError(payload)
	if err != nil || !h.IsError() || werr.Code != ErrCodeOpcode {
		t.Fatalf("want code %d, got %+v / %+v, %v", ErrCodeOpcode, h, werr, err)
	}
	good, err := AppendOpFrame(nil, 2, service.Op{Kind: service.OpGet, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(good); err != nil {
		t.Fatal(err)
	}
	if h, _ := readFrameT(t, nc); h.ReqID != 2 || h.IsError() {
		t.Fatalf("post-unknown-opcode op failed: %+v", h)
	}
}

// TestUnsupportedVersion: code 5, then the server closes the connection
// (PROTOCOL.md §6).
func TestUnsupportedVersion(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	frame := AppendHeader(nil, Header{Version: 99, Opcode: OpcodeOp, ReqID: 5})
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	h, payload := readFrameT(t, nc)
	werr, err := DecodeError(payload)
	if err != nil || !h.IsError() || werr.Code != ErrCodeVersion || h.ReqID != 5 {
		t.Fatalf("want code %d reqid 5, got %+v / %+v, %v", ErrCodeVersion, h, werr, err)
	}
	assertConnClosed(t, nc)
}

// TestBadMagicCloses: a peer not speaking RPW1 is disconnected with no
// response frame (PROTOCOL.md §4).
func TestBadMagicCloses(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("POST /op HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	assertConnClosed(t, nc)
}

// TestOversizedPayloadCloses: announcing more than MaxPayload is fatal
// (PROTOCOL.md §2.3): error code 7 then close.
func TestOversizedPayloadCloses(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	var hdr [HeaderSize]byte
	PutHeader(hdr[:], Header{Version: Version, Opcode: OpcodeBatch, ReqID: 9})
	putU32(hdr[16:], MaxPayload+1)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	h, payload := readFrameT(t, nc)
	werr, err := DecodeError(payload)
	if err != nil || !h.IsError() || werr.Code != ErrCodeTooLarge || h.ReqID != 9 {
		t.Fatalf("want code %d reqid 9, got %+v / %+v, %v", ErrCodeTooLarge, h, werr, err)
	}
	assertConnClosed(t, nc)
}

func assertConnClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := nc.Read(b[:]); err == nil {
		t.Fatalf("connection still open: read byte %x", b)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection not closed within deadline")
	}
}

// TestConnDropMidPipeline: a client vanishing with requests in flight —
// including a pending drain fence — must leak nothing: the server
// completes the ops, discards the answers, and its goroutine count
// settles back to the baseline (PROTOCOL.md §7).
func TestConnDropMidPipeline(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 2})

	// Warm up with one full round trip so the server's accept loops (spawned
	// asynchronously by Serve) are all running before the baseline count.
	warm := dialT(t, addr)
	if _, err := warm.Do(service.Op{Kind: service.OpPut, Key: "warm", Val: "v"}); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	before := runtime.NumGoroutine()

	for round := 0; round < 5; round++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for i := uint64(1); i <= 32; i++ {
			buf, err = AppendOpFrame(buf, i, service.Op{Kind: service.OpPut, Key: fmt.Sprintf("k%d", i), Val: "v"})
			if err != nil {
				t.Fatal(err)
			}
		}
		buf = AppendEmptyFrame(buf, OpcodeDrain, 0, 1000)
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		// Drop the connection without reading a single response.
		nc.Close()
	}

	// The server must settle back to its pre-drop goroutine count.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after conn drops: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShutdownForceClosesHungConns: Shutdown with an expired context
// force-closes connections that never finish, and Serve returns nil.
func TestShutdownForceClosesHungConns(t *testing.T) {
	store := service.New(service.Config{Shards: 1})
	defer store.Close()
	srv := NewServer(store, ServerConfig{AcceptLoops: 1})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	// A connection that sits there holding the accept open.
	nc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Dial returns once the kernel has the connection; the accept loop may
	// not have tracked it yet, and a Shutdown that finds no connection has
	// nothing to wait for.
	for tracked := 0; tracked == 0; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		tracked = len(srv.conns)
		srv.mu.Unlock()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestDialRefusedAfterShutdown: a shut-down server accepts nothing.
func TestDialRefusedAfterShutdown(t *testing.T) {
	store := service.New(service.Config{Shards: 1})
	defer store.Close()
	srv := NewServer(store, ServerConfig{AcceptLoops: 1})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Serve racing Shutdown may either drain cleanly (nil) or observe the
	// shutdown before registering its listener (net.ErrClosed); both are
	// clean exits.
	if err := <-done; err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatal(err)
	}
	if err := srv.Serve(lis); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("serve after shutdown: %v", err)
	}
}

// TestClientConnFailure: in-flight and future calls on a dropped client
// connection fail with typed errors instead of hanging.
func TestClientConnFailure(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 1})
	c := dialT(t, addr)
	if _, err := c.Do(service.Op{Kind: service.OpPut, Key: "k", Val: "v"}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Do(service.Op{Kind: service.OpGet, Key: "k"}); err == nil {
		t.Fatal("Do on a closed conn succeeded")
	}
	if err := c.Drain(); err == nil {
		t.Fatal("Drain on a closed conn succeeded")
	}
}

// handlerGoroutines counts the wire server's handler goroutines, parked or
// busy, in the whole process.
func handlerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*serverConn).handle(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestShutdownJoinsHandlers: a Shutdown that force-closes a connection whose
// handlers sit parked between requests leaves none of them behind.
func TestShutdownJoinsHandlers(t *testing.T) {
	before := runtime.NumGoroutine()
	store := service.New(service.Config{Shards: 2})
	srv := NewServer(store, ServerConfig{AcceptLoops: 1})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.Do(service.Op{Kind: service.OpPut, Key: fmt.Sprintf("w%d", w), Val: "v"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if handlerGoroutines() == 0 {
		t.Fatal("no parked handler before shutdown: the test checks nothing")
	}

	// The client keeps its connection open, so Shutdown must force it.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if n := handlerGoroutines(); n != 0 {
		t.Fatalf("%d handler goroutines outlived Shutdown", n)
	}
	c.Close()
	store.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// flakyConn is a client transport whose Write, once failNext is set,
// delivers its bytes and then reports failure once release is closed: the
// peer may answer the frame before the caller learns its write failed.
type flakyConn struct {
	net.Conn
	failNext atomic.Bool
	release  chan struct{}
}

var errInjected = errors.New("injected write failure")

func (f *flakyConn) Write(b []byte) (int, error) {
	n, err := f.Conn.Write(b)
	if err == nil && f.failNext.Swap(false) {
		<-f.release
		return n, errInjected
	}
	return n, err
}

// pendingCalls is the number of calls c is waiting on.
func pendingCalls(c *Conn) int {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return len(c.pending)
}

// answerOp writes a result frame for reqid, as a server would.
func answerOp(t *testing.T, nc net.Conn, reqid uint64, val string) {
	t.Helper()
	if _, err := nc.Write(AppendResultFrame(nil, reqid, service.Result{OK: true, Val: val})); err != nil {
		t.Fatal(err)
	}
}

// TestAbandonedCallNeverReused: a call whose write failed is abandoned for
// good. A late response to its ID is dropped, and the call record is never
// handed to a later caller, even when the reader signalled it before the
// caller learned the write had failed.
func TestAbandonedCallNeverReused(t *testing.T) {
	op := service.Op{Kind: service.OpGet, Key: "k"}
	for _, answerFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("answered-before-abandon=%v", answerFirst), func(t *testing.T) {
			cli, peer := net.Pipe()
			defer peer.Close()
			fc := &flakyConn{Conn: cli, release: make(chan struct{})}
			c := NewConn(fc)
			defer c.Close()

			fc.failNext.Store(true)
			if !answerFirst {
				close(fc.release)
			}
			errc := make(chan error, 1)
			go func() { _, err := c.Do(op); errc <- err }()
			h, _ := readFrameT(t, peer)
			if answerFirst {
				answerOp(t, peer, h.ReqID, "stale")
				for pendingCalls(c) != 0 {
					time.Sleep(time.Millisecond)
				}
				close(fc.release)
			}
			if err := <-errc; !errors.Is(err, errInjected) {
				t.Fatalf("failed write: got %v, want the injected error", err)
			}

			type answer struct {
				res service.Result
				err error
			}
			resc := make(chan answer, 1)
			go func() { res, err := c.Do(op); resc <- answer{res, err} }()
			h2, _ := readFrameT(t, peer)
			if !answerFirst {
				answerOp(t, peer, h.ReqID, "stale")
			}
			select {
			case a := <-resc:
				t.Fatalf("call returned %+v, %v before its answer was sent", a.res, a.err)
			case <-time.After(20 * time.Millisecond):
			}
			answerOp(t, peer, h2.ReqID, "fresh")
			if a := <-resc; a.err != nil || a.res.Val != "fresh" {
				t.Fatalf("call after an abandoned one: got %+v, %v, want fresh", a.res, a.err)
			}
		})
	}
}

// TestConnDeathFailsEachCallOnce: a connection that dies with calls in
// flight fails every one of them, and signals each exactly once — a
// second signal would sit in a recycled call's buffer and wake its next
// caller early.
func TestConnDeathFailsEachCallOnce(t *testing.T) {
	cli, peer := net.Pipe()
	c := NewConn(cli)
	defer c.Close()

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { _, err := c.Do(service.Op{Kind: service.OpGet, Key: "k"}); errs <- err }()
	}
	for i := 0; i < n; i++ {
		readFrameT(t, peer) // every call is registered and written
	}
	peer.Close()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrConnClosed) {
			t.Fatalf("in-flight call: got %v, want ErrConnClosed", err)
		}
	}
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if len(c.free) != n {
		t.Fatalf("%d calls released, want %d", len(c.free), n)
	}
	for _, cl := range c.free {
		if len(cl.done) != 0 {
			t.Fatal("a failed call was signalled twice")
		}
	}
}

// countingConn counts the Read calls made on a connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestBurstReadInFewSyscalls: a burst of frames that arrives in one write
// is decoded from a few reads of the connection, on either end, not two
// reads per frame.
func TestBurstReadInFewSyscalls(t *testing.T) {
	const burst, maxReads = 64, 4
	t.Run("server", func(t *testing.T) {
		cli, peer := net.Pipe()
		defer cli.Close()
		cc := &countingConn{Conn: peer}
		sc := NewServer(nil, ServerConfig{}).track(cc)
		served := make(chan struct{})
		go func() { defer close(served); sc.serve() }()
		var frames []byte
		for i := 0; i < burst; i++ {
			frames = emptyFrame(OpcodePing)(frames, uint64(i+1))
		}
		go cli.Write(frames)
		for i := 0; i < burst; i++ {
			if h, _ := readFrameT(t, cli); h.Opcode != OpcodePing || h.ReqID != uint64(i+1) {
				t.Fatalf("answer %d: %+v", i, h)
			}
		}
		if n := cc.reads.Load(); n > maxReads {
			t.Errorf("%d pings took %d reads, want at most %d", burst, n, maxReads)
		}
		cli.Close()
		<-served
	})
	t.Run("client", func(t *testing.T) {
		cli, peer := net.Pipe()
		defer peer.Close()
		cc := &countingConn{Conn: cli}
		c := NewConn(cc)
		defer c.Close()
		go func() {
			h, _ := readFrameT(t, peer)
			// Answers to calls nobody waits for are decoded and dropped;
			// the ping's own answer ends the burst.
			var frames []byte
			for i := 0; i < burst-1; i++ {
				frames = AppendResultFrame(frames, h.ReqID+1000+uint64(i), service.Result{OK: true, Val: "v"})
			}
			r := response{opcode: OpcodePing, reqid: h.ReqID}
			peer.Write(r.appendFrame(frames))
		}()
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if n := cc.reads.Load(); n > maxReads {
			t.Errorf("%d answers took %d reads, want at most %d", burst, n, maxReads)
		}
	})
}
