package wire

import (
	"unsafe"

	"repro/internal/service"
)

// Little-endian integer primitives. encoding/binary would do the same
// thing, but spelling them out keeps the codec self-contained and makes
// the golden-frame tests a byte-for-byte reading of this file.

func putU16(b []byte, v uint16) {
	_ = b[1]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU16(b []byte) uint16 { _ = b[1]; return uint16(b[0]) | uint16(b[1])<<8 }

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	_ = b[7]
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// aliasString returns a string sharing b's storage: the zero-copy half of
// the decode path. The result is valid exactly as long as b's bytes are
// neither mutated nor recycled.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// appendStr appends a u16 length prefix and the string bytes
// (docs/PROTOCOL.md §3.1). Strings longer than MaxStr cannot be encoded;
// Append* callers validate via opSizeOK before reserving a frame.
func appendStr(dst []byte, s string) []byte {
	var l [2]byte
	putU16(l[:], uint16(len(s)))
	dst = append(dst, l[:]...)
	return append(dst, s...)
}

// decStr decodes one u16-length-prefixed string starting at b[i], returning
// the string (aliasing b) and the cursor past it.
func decStr(b []byte, i int) (string, int, error) {
	if len(b)-i < 2 {
		return "", 0, ErrTruncated
	}
	n := int(getU16(b[i:]))
	i += 2
	if len(b)-i < n {
		return "", 0, ErrTruncated
	}
	return aliasString(b[i : i+n]), i + n, nil
}

// opSizeOK reports whether op's strings fit the u16 length prefixes.
func opSizeOK(op service.Op) bool {
	return len(op.Key) <= MaxStr && len(op.Val) <= MaxStr && len(op.Old) <= MaxStr
}

// batchSizeOK reports whether ops fit a batch frame: at most MaxBatchOps
// ops, each of whose strings fit the u16 length prefixes.
func batchSizeOK(ops []service.Op) bool {
	if len(ops) > MaxBatchOps {
		return false
	}
	for _, op := range ops {
		if !opSizeOK(op) {
			return false
		}
	}
	return true
}

// AppendOp appends one encoded command (docs/PROTOCOL.md §3.2):
//
//	kind(1) id(8) key(2+n) val(2+n) old(2+n)
//
// Strings longer than MaxStr are silently truncated by the u16 prefix;
// AppendOpFrame validates first and fails with ErrBadFrame instead.
func AppendOp(dst []byte, op service.Op) []byte {
	var fix [9]byte
	fix[0] = byte(op.Kind)
	putU64(fix[1:], op.ID)
	dst = append(dst, fix[:]...)
	dst = appendStr(dst, op.Key)
	dst = appendStr(dst, op.Val)
	return appendStr(dst, op.Old)
}

// DecodeOp decodes one command from b, returning the op and the cursor
// just past it.
//
// Aliasing contract: the op's Key/Val/Old strings share b's storage — zero
// copies, zero allocations. The caller must therefore never mutate or
// recycle b while any decoded string may still be referenced; the server
// satisfies this by reading each op-bearing payload into a fresh buffer
// and letting the garbage collector track the aliases.
func DecodeOp(b []byte) (service.Op, int, error) {
	var op service.Op
	if len(b) < 9 {
		return op, 0, ErrTruncated
	}
	kind := service.OpKind(b[0])
	if kind >= service.NumOpKinds {
		return op, 0, ErrBadFrame
	}
	op.Kind = kind
	op.ID = getU64(b[1:])
	var err error
	i := 9
	if op.Key, i, err = decStr(b, i); err != nil {
		return service.Op{}, 0, err
	}
	if op.Val, i, err = decStr(b, i); err != nil {
		return service.Op{}, 0, err
	}
	if op.Old, i, err = decStr(b, i); err != nil {
		return service.Op{}, 0, err
	}
	return op, i, nil
}

// AppendResult appends one encoded result (docs/PROTOCOL.md §3.2):
//
//	ok(1) val(2+n)
func AppendResult(dst []byte, res service.Result) []byte {
	ok := byte(0)
	if res.OK {
		ok = 1
	}
	dst = append(dst, ok)
	return appendStr(dst, res.Val)
}

// DecodeResult decodes one result from b (Val aliases b; see DecodeOp).
func DecodeResult(b []byte) (service.Result, int, error) {
	var res service.Result
	if len(b) < 1 {
		return res, 0, ErrTruncated
	}
	if b[0] > 1 {
		return res, 0, ErrBadFrame
	}
	res.OK = b[0] == 1
	var err error
	i := 1
	if res.Val, i, err = decStr(b, i); err != nil {
		return service.Result{}, 0, err
	}
	return res, i, nil
}

// AppendBatch appends an encoded batch payload (docs/PROTOCOL.md §3.3):
//
//	count(2) op[0] ... op[count-1]
//
// The caller bounds len(ops) by MaxBatchOps.
func AppendBatch(dst []byte, ops []service.Op) []byte {
	var c [2]byte
	putU16(c[:], uint16(len(ops)))
	dst = append(dst, c[:]...)
	for _, op := range ops {
		dst = AppendOp(dst, op)
	}
	return dst
}

// DecodeBatch decodes a whole batch payload, appending the ops to dst
// (pass a reused slice to amortize; strings alias b — see DecodeOp). The
// payload must be exactly consumed: trailing bytes are ErrBadFrame.
func DecodeBatch(b []byte, dst []service.Op) ([]service.Op, error) {
	if len(b) < 2 {
		return dst, ErrTruncated
	}
	count := int(getU16(b[0:]))
	if count > MaxBatchOps {
		return dst, ErrBadFrame
	}
	i := 2
	for k := 0; k < count; k++ {
		op, n, err := DecodeOp(b[i:])
		if err != nil {
			return dst, err
		}
		dst = append(dst, op)
		i += n
	}
	if i != len(b) {
		return dst, ErrBadFrame
	}
	return dst, nil
}

// AppendResults appends an encoded batch-result payload (docs/PROTOCOL.md
// §3.3): count(2) result[0] ... result[count-1].
func AppendResults(dst []byte, results []service.Result) []byte {
	var c [2]byte
	putU16(c[:], uint16(len(results)))
	dst = append(dst, c[:]...)
	for _, res := range results {
		dst = AppendResult(dst, res)
	}
	return dst
}

// DecodeResults decodes a batch-result payload, appending to dst (Vals
// alias b; see DecodeOp). Trailing bytes are ErrBadFrame.
func DecodeResults(b []byte, dst []service.Result) ([]service.Result, error) {
	if len(b) < 2 {
		return dst, ErrTruncated
	}
	count := int(getU16(b[0:]))
	if count > MaxBatchOps {
		return dst, ErrBadFrame
	}
	i := 2
	for k := 0; k < count; k++ {
		res, n, err := DecodeResult(b[i:])
		if err != nil {
			return dst, err
		}
		dst = append(dst, res)
		i += n
	}
	if i != len(b) {
		return dst, ErrBadFrame
	}
	return dst, nil
}

// AppendError appends an encoded error payload (docs/PROTOCOL.md §3.6):
//
//	code(1) msg(2+n)
func AppendError(dst []byte, code byte, msg string) []byte {
	if len(msg) > MaxStr {
		msg = msg[:MaxStr]
	}
	dst = append(dst, code)
	return appendStr(dst, msg)
}

// DecodeError decodes an error payload into an *Error (Msg is copied, not
// aliased: errors outlive their frames by design).
func DecodeError(b []byte) (*Error, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	msg, _, err := decStr(b, 1)
	if err != nil {
		return nil, err
	}
	return &Error{Code: b[0], Msg: string(msg)}, nil
}

// beginFrame appends a header with a zero length field, returning the new
// slice and the header's offset; endFrame patches the payload length once
// the payload has been appended.
func beginFrame(dst []byte, opcode byte, flags uint16, reqid uint64) ([]byte, int) {
	start := len(dst)
	dst = AppendHeader(dst, Header{Version: Version, Opcode: opcode, Flags: flags, ReqID: reqid})
	return dst, start
}

func endFrame(dst []byte, start int) []byte {
	putU32(dst[start+16:], uint32(len(dst)-start-HeaderSize))
	return dst
}

// AppendOpFrame appends a complete single-op request frame.
func AppendOpFrame(dst []byte, reqid uint64, op service.Op) ([]byte, error) {
	if !opSizeOK(op) {
		return dst, ErrBadFrame
	}
	dst, start := beginFrame(dst, OpcodeOp, 0, reqid)
	dst = AppendOp(dst, op)
	return endFrame(dst, start), nil
}

// AppendBatchFrame appends a complete batch request frame.
func AppendBatchFrame(dst []byte, reqid uint64, ops []service.Op) ([]byte, error) {
	if !batchSizeOK(ops) {
		return dst, ErrBadFrame
	}
	dst, start := beginFrame(dst, OpcodeBatch, 0, reqid)
	dst = AppendBatch(dst, ops)
	return endFrame(dst, start), nil
}

// AppendResultFrame appends a complete single-op response frame.
func AppendResultFrame(dst []byte, reqid uint64, res service.Result) []byte {
	dst, start := beginFrame(dst, OpcodeOp, FlagResp, reqid)
	dst = AppendResult(dst, res)
	return endFrame(dst, start)
}

// AppendResultsFrame appends a complete batch response frame.
func AppendResultsFrame(dst []byte, reqid uint64, results []service.Result) []byte {
	dst, start := beginFrame(dst, OpcodeBatch, FlagResp, reqid)
	dst = AppendResults(dst, results)
	return endFrame(dst, start)
}

// AppendErrorFrame appends a complete error response frame for opcode.
func AppendErrorFrame(dst []byte, opcode byte, reqid uint64, code byte, msg string) []byte {
	dst, start := beginFrame(dst, opcode, FlagResp|FlagError, reqid)
	dst = AppendError(dst, code, msg)
	return endFrame(dst, start)
}

// AppendEmptyFrame appends a payload-less frame (stats/drain requests, the
// drain response).
func AppendEmptyFrame(dst []byte, opcode byte, flags uint16, reqid uint64) []byte {
	dst, start := beginFrame(dst, opcode, flags, reqid)
	return endFrame(dst, start)
}

// AppendRawFrame appends a frame whose payload is the given bytes (the
// stats response's JSON document).
func AppendRawFrame(dst []byte, opcode byte, flags uint16, reqid uint64, payload []byte) []byte {
	dst, start := beginFrame(dst, opcode, flags, reqid)
	dst = append(dst, payload...)
	return endFrame(dst, start)
}
