// Package wire is the serving tier's binary transport: a length-prefixed,
// connection-multiplexed, pipelined framing protocol that carries the
// store's commands (internal/service.Op) between cmd/loadgen-class clients
// and the cmd/served -wire listener at a small fraction of the HTTP/JSON
// front end's cost.
//
// The protocol is fully specified in docs/PROTOCOL.md; this package is the
// reference implementation and the golden-frame tests in codec_test.go pin
// the byte layout to the spec section by section. The shape in brief:
//
//	frame  = header(20 bytes) payload(header.Len bytes)
//	header = magic(4) version(1) opcode(1) flags(2) reqid(8) len(4)
//
// Many requests share one connection: the client stamps each request frame
// with a connection-local request ID, the server answers each request with
// exactly one response frame echoing that ID, and responses may arrive in
// any order — a client keeps many frames in flight (pipelining) and
// correlates by ID. Batch frames carry many ops in one frame, so one
// syscall and one header amortize across the whole batch, and the decoded
// batch feeds the store's per-shard batch windows directly via DoBatch.
//
// Encoding discipline (the whole point of the package): encoders are
// append-style over caller-held buffers (a client Conn's encode buffer, the
// server writer's bufio.Writer) and decoders are
// cursor-style over the received frame with strings aliasing the frame
// buffer — no reflection, no intermediate structs, 0 allocs/op on both
// paths, held by TestWireCodecZeroAllocs exactly like the internal/sched
// step path. See DecodeOp for the aliasing contract.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/service"
)

// Protocol constants (docs/PROTOCOL.md §2). The magic bytes spell "RPW1"
// on the wire; all multi-byte integers are little-endian.
const (
	// Magic is the little-endian u32 whose wire bytes are 'R','P','W','1'.
	Magic uint32 = 0x31575052
	// Version is the protocol version this implementation speaks.
	Version byte = 1
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 20
	// MaxPayload is the largest payload length a peer may send; a header
	// announcing more is a fatal framing error (§2.3).
	MaxPayload = 1 << 20
	// MaxStr is the largest key/value/old/error-message byte length (u16
	// length prefix, §3.1).
	MaxStr = 1<<16 - 1
	// MaxBatchOps is the largest op count in one batch frame (§3.3).
	MaxBatchOps = 8192
)

// Opcodes (docs/PROTOCOL.md §2.2). A response frame echoes its request's
// opcode and sets FlagResp.
const (
	// OpcodeOp carries one command; its response carries one result (§3.2).
	OpcodeOp byte = 0x01
	// OpcodeBatch carries count-prefixed commands; its response carries the
	// index-aligned results (§3.3).
	OpcodeBatch byte = 0x02
	// OpcodeStats requests a stats snapshot; the response payload is the
	// service.Stats JSON document (§3.4).
	OpcodeStats byte = 0x03
	// OpcodeDrain is the pipeline fence: its response is sent only after
	// every request frame received before it has been answered (§3.5).
	OpcodeDrain byte = 0x04
	// OpcodePing is the no-op round trip: empty request payload, empty
	// response payload. Clients use it as a keepalive, reachability probe
	// and RTT measurement (§3.7); cluster peer links never carry it.
	OpcodePing byte = 0x05
)

// Replication opcodes (docs/PROTOCOL.md §5): the message layer of
// internal/cluster's leader-per-shard replication. Unlike opcodes
// 0x01-0x05 these are ONE-WAY frames — no response is ever sent, FlagResp
// is never set, and the header's reqid is zero (request/response
// correlation for routed client ops lives in the payload's reqid field
// instead). Every replication frame carries the same Rep envelope payload
// (§5.1); the opcode is the message kind.
const (
	// OpcodeRepHeartbeat is the periodic peer liveness beacon.
	OpcodeRepHeartbeat byte = 0x06
	// OpcodeRepRoute forwards client ops from a front end to the believed
	// shard owner (payload reqid correlates the eventual RepDone).
	OpcodeRepRoute byte = 0x07
	// OpcodeRepDone answers a RepRoute with its index-aligned results.
	OpcodeRepDone byte = 0x08
	// OpcodeRepRedirect tells a front end who the sender believes owns the
	// shard (peer = the owner's node id).
	OpcodeRepRedirect byte = 0x09
	// OpcodeRepAppend streams committed log entries from a shard owner to
	// a follower; an entry-less append probes the follower's frontier.
	OpcodeRepAppend byte = 0x0A
	// opcodeRepRetired (0x0B) was the dedicated follower-ack frame. Acks are
	// a section of every replication frame (§5.1) and a heartbeat is their
	// carrier of last resort, so the opcode is reserved: never sent, and
	// rejected on receipt like any unknown opcode (IsRepOpcode).
	opcodeRepRetired byte = 0x0B
	// OpcodeRepStale fences a deposed owner: the sender has seen a higher
	// epoch for the shard.
	OpcodeRepStale byte = 0x0C
	// OpcodeRepVote requests an election vote (epoch = candidate epoch,
	// frontier/seq = the candidate's log position, see §5.3).
	OpcodeRepVote byte = 0x0D
	// OpcodeRepVoteOK grants a vote (frontier = the voter's frontier).
	OpcodeRepVoteOK byte = 0x0E
	// OpcodeRepOwner announces an election winner to every node.
	OpcodeRepOwner byte = 0x0F
)

// Flags (docs/PROTOCOL.md §2.2).
const (
	// FlagResp marks a frame as a response.
	FlagResp uint16 = 1 << 0
	// FlagError marks a response whose payload is an error (code + message,
	// §3.6) instead of the opcode's result payload.
	FlagError uint16 = 1 << 1
)

// Error codes carried by FlagError responses (docs/PROTOCOL.md §4). Codes
// 2-4 map onto the serving tier's typed errors and keep their retry
// contracts; 5 and 7 are fatal to the connection.
const (
	// ErrCodeBadRequest: the payload failed to decode or named an invalid
	// op kind. Not retriable.
	ErrCodeBadRequest byte = 1
	// ErrCodeSaturated maps service.ErrSaturated: the op was never
	// enqueued; retry as-is after backing off.
	ErrCodeSaturated byte = 2
	// ErrCodeDeadline maps service.ErrDeadline: the op may still commit;
	// retry with the same op ID.
	ErrCodeDeadline byte = 3
	// ErrCodeClosed maps service.ErrClosed: the store is draining.
	ErrCodeClosed byte = 4
	// ErrCodeVersion: the request frame's version is unsupported. The
	// server answers with this code and closes the connection.
	ErrCodeVersion byte = 5
	// ErrCodeOpcode: the request opcode is unknown. The connection stays
	// usable (framing is intact — the unknown payload is skipped).
	ErrCodeOpcode byte = 6
	// ErrCodeTooLarge: the announced payload length exceeds MaxPayload.
	// Fatal: the server answers and closes the connection.
	ErrCodeTooLarge byte = 7
	// ErrCodeInternal: any other serving error.
	ErrCodeInternal byte = 8
)

// Decode-side sentinel errors.
var (
	// ErrTruncated reports a payload shorter than its own structure claims.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadMagic reports a header whose magic bytes are wrong — the peer
	// is not speaking this protocol.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion reports an unsupported protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrTooLarge reports a payload length above MaxPayload.
	ErrTooLarge = errors.New("wire: payload too large")
	// ErrBadFrame reports a structurally invalid payload (bad op kind,
	// batch count over MaxBatchOps, trailing bytes).
	ErrBadFrame = errors.New("wire: malformed payload")
)

// Error is a protocol-level error decoded from a FlagError response frame.
// Unwrap maps the serving-tier codes back onto the service package's typed
// errors, so errors.Is(err, service.ErrSaturated) works across the wire
// exactly as it does in-process.
type Error struct {
	Code byte
	Msg  string
}

// Error formats the code and the server-supplied message.
func (e *Error) Error() string {
	return fmt.Sprintf("wire: remote error code %d: %s", e.Code, e.Msg)
}

// Unwrap maps the error code onto the in-process typed error it carries,
// if any (docs/PROTOCOL.md §4).
func (e *Error) Unwrap() error {
	switch e.Code {
	case ErrCodeSaturated:
		return service.ErrSaturated
	case ErrCodeDeadline:
		return service.ErrDeadline
	case ErrCodeClosed:
		return service.ErrClosed
	case ErrCodeVersion:
		return ErrVersion
	case ErrCodeTooLarge:
		return ErrTooLarge
	default:
		return nil
	}
}

// ErrCodeOf maps a serving-tier error onto its wire error code; unknown
// errors map to ErrCodeInternal (docs/PROTOCOL.md §4).
func ErrCodeOf(err error) byte {
	switch {
	case errors.Is(err, service.ErrSaturated):
		return ErrCodeSaturated
	case errors.Is(err, service.ErrDeadline):
		return ErrCodeDeadline
	case errors.Is(err, service.ErrClosed):
		return ErrCodeClosed
	default:
		return ErrCodeInternal
	}
}

// Header is one frame's fixed-size header (docs/PROTOCOL.md §2.1). The
// magic field is implicit: encoders always write Magic, ParseHeader rejects
// anything else.
type Header struct {
	Version byte
	Opcode  byte
	Flags   uint16
	ReqID   uint64
	Len     uint32
}

// IsResp reports whether the frame is a response.
func (h Header) IsResp() bool { return h.Flags&FlagResp != 0 }

// IsError reports whether the frame is an error response.
func (h Header) IsError() bool { return h.Flags&FlagError != 0 }

// PutHeader encodes h into dst[:HeaderSize]. It panics if dst is shorter
// (callers size their buffers; this is not an input-validation boundary).
func PutHeader(dst []byte, h Header) {
	_ = dst[HeaderSize-1]
	putU32(dst[0:], Magic)
	dst[4] = h.Version
	dst[5] = h.Opcode
	putU16(dst[6:], h.Flags)
	putU64(dst[8:], h.ReqID)
	putU32(dst[16:], h.Len)
}

// AppendHeader appends the encoded header to dst.
func AppendHeader(dst []byte, h Header) []byte {
	var b [HeaderSize]byte
	PutHeader(b[:], h)
	return append(dst, b[:]...)
}

// ParseHeader decodes and validates src[:HeaderSize]: the magic must match
// and the announced payload length must not exceed MaxPayload. Version and
// opcode are NOT validated here — the server answers those with in-band
// error frames (§4), which requires the parsed header first.
func ParseHeader(src []byte) (Header, error) {
	if len(src) < HeaderSize {
		return Header{}, ErrTruncated
	}
	if getU32(src[0:]) != Magic {
		return Header{}, ErrBadMagic
	}
	h := Header{
		Version: src[4],
		Opcode:  src[5],
		Flags:   getU16(src[6:]),
		ReqID:   getU64(src[8:]),
		Len:     getU32(src[16:]),
	}
	if h.Len > MaxPayload {
		return Header{}, ErrTooLarge
	}
	return h, nil
}
