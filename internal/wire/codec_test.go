package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/service"
)

// mustHex decodes a whitespace-separated hex string.
func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatalf("bad hex in test: %v", err)
	}
	return b
}

// Golden frames: every test below pins exact wire bytes to the section of
// docs/PROTOCOL.md it implements. If one of these fails, either the codec
// or the spec changed — fix whichever is wrong, never the golden bytes
// alone.

// TestGoldenHeader pins the 20-byte header layout of PROTOCOL.md §2.1:
// magic 'R”P”W”1', version, opcode, flags, reqid, len — little-endian.
func TestGoldenHeader(t *testing.T) {
	h := Header{Version: 1, Opcode: OpcodeBatch, Flags: FlagResp, ReqID: 0x0807060504030201, Len: 0xBBCC}
	got := AppendHeader(nil, h)
	want := mustHex(t, `
		52 50 57 31
		01
		02
		01 00
		01 02 03 04 05 06 07 08
		CC BB 00 00`)
	if !bytes.Equal(got, want) {
		t.Fatalf("header bytes\n got %x\nwant %x", got, want)
	}
	back, err := ParseHeader(got)
	if err != nil || back != h {
		t.Fatalf("ParseHeader = %+v, %v; want %+v", back, err, h)
	}
}

// TestGoldenOpFrame pins a complete single-op request frame: the §2.1
// header around the §3.2 command payload kind(1) id(8) key val old.
func TestGoldenOpFrame(t *testing.T) {
	op := service.Op{Kind: service.OpPut, Key: "k", Val: "v7", ID: 9}
	got, err := AppendOpFrame(nil, 3, op)
	if err != nil {
		t.Fatal(err)
	}
	want := mustHex(t, `
		52 50 57 31  01  01  00 00
		03 00 00 00 00 00 00 00
		12 00 00 00
		01
		09 00 00 00 00 00 00 00
		01 00 6b
		02 00 76 37
		00 00`)
	if !bytes.Equal(got, want) {
		t.Fatalf("op frame\n got %x\nwant %x", got, want)
	}
	back, n, err := DecodeOp(got[HeaderSize:])
	if err != nil || n != len(got)-HeaderSize || back != op {
		t.Fatalf("DecodeOp = %+v, %d, %v; want %+v", back, n, err, op)
	}
}

// TestGoldenResultFrame pins a single-op response frame: §3.2 result
// payload ok(1) val under a header with the resp flag (§2.2).
func TestGoldenResultFrame(t *testing.T) {
	got := AppendResultFrame(nil, 3, service.Result{Val: "v7", OK: true})
	want := mustHex(t, `
		52 50 57 31  01  01  01 00
		03 00 00 00 00 00 00 00
		05 00 00 00
		01
		02 00 76 37`)
	if !bytes.Equal(got, want) {
		t.Fatalf("result frame\n got %x\nwant %x", got, want)
	}
}

// TestGoldenBatchPayload pins the §3.3 batch payload: u16 count then the
// ops concatenated with no padding.
func TestGoldenBatchPayload(t *testing.T) {
	ops := []service.Op{
		{Kind: service.OpGet, Key: "a"},
		{Kind: service.OpCAS, Key: "b", Old: "x", Val: "y"},
	}
	got := AppendBatch(nil, ops)
	want := mustHex(t, `
		02 00
		00  00 00 00 00 00 00 00 00  01 00 61  00 00  00 00
		02  00 00 00 00 00 00 00 00  01 00 62  01 00 79  01 00 78`)
	if !bytes.Equal(got, want) {
		t.Fatalf("batch payload\n got %x\nwant %x", got, want)
	}
	back, err := DecodeBatch(got, nil)
	if err != nil || len(back) != 2 || back[0] != ops[0] || back[1] != ops[1] {
		t.Fatalf("DecodeBatch = %+v, %v", back, err)
	}
}

// TestGoldenErrorFrame pins the §3.6 error payload code(1) msg under the
// resp|error flags (§2.2), and the §4 code→typed-error mapping.
func TestGoldenErrorFrame(t *testing.T) {
	got := AppendErrorFrame(nil, OpcodeOp, 5, ErrCodeDeadline, "late")
	want := mustHex(t, `
		52 50 57 31  01  01  03 00
		05 00 00 00 00 00 00 00
		07 00 00 00
		03
		04 00 6c 61 74 65`)
	if !bytes.Equal(got, want) {
		t.Fatalf("error frame\n got %x\nwant %x", got, want)
	}
	werr, err := DecodeError(got[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(werr, service.ErrDeadline) {
		t.Fatalf("code %d did not unwrap to service.ErrDeadline", werr.Code)
	}
}

// TestGoldenEmptyFrames pins the payload-less stats/drain frames (§3.4,
// §3.5).
func TestGoldenEmptyFrames(t *testing.T) {
	got := AppendEmptyFrame(nil, OpcodeDrain, FlagResp, 1)
	want := mustHex(t, `52 50 57 31 01 04 01 00 01 00 00 00 00 00 00 00 00 00 00 00`)
	if !bytes.Equal(got, want) {
		t.Fatalf("drain response\n got %x\nwant %x", got, want)
	}
}

func TestRoundTripOps(t *testing.T) {
	ops := []service.Op{
		{},
		{Kind: service.OpGet, Key: "k00042"},
		{Kind: service.OpPut, Key: "key", Val: strings.Repeat("v", 1000), ID: 1<<64 - 1},
		{Kind: service.OpCAS, Key: "k", Old: "before", Val: "after", ID: 7},
	}
	frame, err := AppendBatchFrame(nil, 42, ops)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Opcode != OpcodeBatch || h.ReqID != 42 || int(h.Len) != len(frame)-HeaderSize {
		t.Fatalf("header %+v for frame of %d bytes", h, len(frame))
	}
	back, err := DecodeBatch(frame[HeaderSize:], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if back[i] != ops[i] {
			t.Fatalf("op %d: got %+v want %+v", i, back[i], ops[i])
		}
	}
}

func TestRoundTripResults(t *testing.T) {
	results := []service.Result{{}, {OK: true}, {OK: true, Val: "hello"}, {Val: strings.Repeat("x", MaxStr)}}
	frame := AppendResultsFrame(nil, 1, results)
	back, err := DecodeResults(frame[HeaderSize:], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if back[i] != results[i] {
			t.Fatalf("result %d mismatch", i)
		}
	}
}

// TestHeaderErrors covers the §2 validation boundaries: short input, bad
// magic, oversized announced payload.
func TestHeaderErrors(t *testing.T) {
	if _, err := ParseHeader(make([]byte, HeaderSize-1)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	http := append([]byte("POST / HTTP/1.1\r\n\r\n"), make([]byte, HeaderSize)...)
	if _, err := ParseHeader(http); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	big := AppendHeader(nil, Header{Version: 1, Opcode: OpcodeOp, Len: MaxPayload + 1})
	if _, err := ParseHeader(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
}

// TestDecodeTruncation walks every prefix of valid payloads and asserts
// each truncation fails typed, never panics, never mis-decodes.
func TestDecodeTruncation(t *testing.T) {
	op := AppendOp(nil, service.Op{Kind: service.OpCAS, Key: "key", Old: "old", Val: "val", ID: 3})
	for n := 0; n < len(op); n++ {
		if _, _, err := DecodeOp(op[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("op prefix %d: %v", n, err)
		}
	}
	batch := AppendBatch(nil, []service.Op{{Kind: service.OpPut, Key: "a", Val: "b"}})
	for n := 0; n < len(batch); n++ {
		if _, err := DecodeBatch(batch[:n], nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("batch prefix %d: %v", n, err)
		}
	}
	res := AppendResult(nil, service.Result{OK: true, Val: "v"})
	for n := 0; n < len(res); n++ {
		if _, _, err := DecodeResult(res[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("result prefix %d: %v", n, err)
		}
	}
	errp := AppendError(nil, ErrCodeInternal, "boom")
	for n := 0; n < len(errp); n++ {
		if _, err := DecodeError(errp[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("error prefix %d: %v", n, err)
		}
	}
}

// TestDecodeMalformed covers §3's structural rejections: bad op kind, bad
// ok byte, batch count over the limit, trailing bytes.
func TestDecodeMalformed(t *testing.T) {
	bad := AppendOp(nil, service.Op{Kind: service.OpGet, Key: "k"})
	bad[0] = byte(service.NumOpKinds)
	if _, _, err := DecodeOp(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad kind: %v", err)
	}

	res := AppendResult(nil, service.Result{})
	res[0] = 2
	if _, _, err := DecodeResult(res); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad ok byte: %v", err)
	}

	huge := make([]byte, 2)
	putU16(huge, MaxBatchOps+1)
	if _, err := DecodeBatch(huge, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized batch count: %v", err)
	}

	trailing := append(AppendBatch(nil, []service.Op{{Kind: service.OpGet, Key: "k"}}), 0xFF)
	if _, err := DecodeBatch(trailing, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes: %v", err)
	}
	trailRes := append(AppendResults(nil, []service.Result{{OK: true}}), 0xFF)
	if _, err := DecodeResults(trailRes, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing result bytes: %v", err)
	}
}

// TestEncodeRejectsOversized: client-side framing refuses what the server
// would reject (§2.3) instead of emitting an unparseable frame.
func TestEncodeRejectsOversized(t *testing.T) {
	tooLong := strings.Repeat("x", MaxStr+1)
	if _, err := AppendOpFrame(nil, 1, service.Op{Kind: service.OpPut, Key: "k", Val: tooLong}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized val: %v", err)
	}
	ops := make([]service.Op, MaxBatchOps+1)
	for i := range ops {
		ops[i] = service.Op{Kind: service.OpGet, Key: "k"}
	}
	if _, err := AppendBatchFrame(nil, 1, ops); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized batch: %v", err)
	}
}

// TestDecodeAliasing documents the zero-copy contract: decoded strings
// share the payload buffer's storage.
func TestDecodeAliasing(t *testing.T) {
	buf := AppendOp(nil, service.Op{Kind: service.OpPut, Key: "k", Val: "v"})
	op, _, err := DecodeOp(buf)
	if err != nil {
		t.Fatal(err)
	}
	if op.Val != "v" {
		t.Fatalf("val %q", op.Val)
	}
	buf[len(buf)-3] = 'w' // the val byte
	if op.Val != "w" {
		t.Fatalf("decoded string did not alias the buffer: %q", op.Val)
	}
}

func TestErrCodeOf(t *testing.T) {
	cases := map[byte]error{
		ErrCodeSaturated: service.ErrSaturated,
		ErrCodeDeadline:  service.ErrDeadline,
		ErrCodeClosed:    service.ErrClosed,
	}
	for code, typed := range cases {
		if got := ErrCodeOf(typed); got != code {
			t.Fatalf("ErrCodeOf(%v) = %d want %d", typed, got, code)
		}
		if !errors.Is(&Error{Code: code}, typed) {
			t.Fatalf("code %d does not unwrap to %v", code, typed)
		}
	}
	if got := ErrCodeOf(errors.New("other")); got != ErrCodeInternal {
		t.Fatalf("unknown error mapped to %d", got)
	}
}
