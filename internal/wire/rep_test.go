package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestGoldenPingFrames pins the §3.7 no-op round trip: empty request and
// response payloads under the ping opcode.
func TestGoldenPingFrames(t *testing.T) {
	req := AppendEmptyFrame(nil, OpcodePing, 0, 7)
	want := mustHex(t, `52 50 57 31 01 05 00 00 07 00 00 00 00 00 00 00 00 00 00 00`)
	if !bytes.Equal(req, want) {
		t.Fatalf("ping request\n got %x\nwant %x", req, want)
	}
	resp := AppendEmptyFrame(nil, OpcodePing, FlagResp, 7)
	want = mustHex(t, `52 50 57 31 01 05 01 00 07 00 00 00 00 00 00 00 00 00 00 00`)
	if !bytes.Equal(resp, want) {
		t.Fatalf("ping response\n got %x\nwant %x", resp, want)
	}
}

// goldenRep is TestGoldenRepFrame's envelope: every field set, one
// element in each section.
var goldenRep = Rep{
	From: 1, Peer: 2, Shard: 3, Epoch: 4, Seq: 5, Frontier: 6, ReqID: 7,
	Ops:     []service.Op{{Kind: service.OpPut, Key: "k", Val: "v", ID: 9}},
	Results: []service.Result{{OK: true, Val: "r"}},
	Entries: []RepEntry{{Seq: 8, Epoch: 4, Ops: []service.Op{{Kind: service.OpGet, Key: "g"}}}},
	Acks:    []RepAck{{Kind: AckAppended, Shard: 3, Epoch: 4, Frontier: 8, Last: 4}},
}

// TestGoldenRepFrame pins a complete replication frame (§5.1): the §2.1
// header (reqid always 0) around the 38-byte preamble and the four
// counted sections, one element each.
func TestGoldenRepFrame(t *testing.T) {
	r := &goldenRep
	got, err := AppendRepFrame(nil, OpcodeRepAppend, r)
	if err != nil {
		t.Fatal(err)
	}
	want := mustHex(t, `
		52 50 57 31  01  0A  00 00
		00 00 00 00 00 00 00 00
		80 00 00 00
		01 00  02 00  03 00
		04 00 00 00 00 00 00 00
		05 00 00 00 00 00 00 00
		06 00 00 00 00 00 00 00
		07 00 00 00 00 00 00 00
		01 00
		01  09 00 00 00 00 00 00 00  01 00 6b  01 00 76  00 00
		01 00
		01  01 00 72
		01 00
		08 00 00 00 00 00 00 00  04 00 00 00 00 00 00 00
		01 00
		00  00 00 00 00 00 00 00 00  01 00 67  00 00  00 00
		01 00
		00  03 00
		04 00 00 00 00 00 00 00
		08 00 00 00 00 00 00 00
		04 00 00 00 00 00 00 00`)
	if !bytes.Equal(got, want) {
		t.Fatalf("rep frame\n got %x\nwant %x", got, want)
	}
	h, err := ParseHeader(got)
	if err != nil || h.Opcode != OpcodeRepAppend || h.ReqID != 0 || h.Flags != 0 {
		t.Fatalf("header %+v, %v", h, err)
	}
	back, err := DecodeRep(got[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	assertRepEqual(t, back, *r)
}

func assertRepEqual(t *testing.T, got, want Rep) {
	t.Helper()
	if got.From != want.From || got.Peer != want.Peer || got.Shard != want.Shard ||
		got.Epoch != want.Epoch || got.Seq != want.Seq || got.Frontier != want.Frontier ||
		got.ReqID != want.ReqID {
		t.Fatalf("preamble mismatch:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Ops) != len(want.Ops) || len(got.Results) != len(want.Results) ||
		len(got.Entries) != len(want.Entries) || len(got.Acks) != len(want.Acks) {
		t.Fatalf("section counts mismatch:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.Acks {
		if got.Acks[i] != want.Acks[i] {
			t.Fatalf("ack %d: got %+v want %+v", i, got.Acks[i], want.Acks[i])
		}
	}
	for i := range want.Ops {
		if got.Ops[i] != want.Ops[i] {
			t.Fatalf("op %d: got %+v want %+v", i, got.Ops[i], want.Ops[i])
		}
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("result %d: got %+v want %+v", i, got.Results[i], want.Results[i])
		}
	}
	for i := range want.Entries {
		ge, we := got.Entries[i], want.Entries[i]
		if ge.Seq != we.Seq || ge.Epoch != we.Epoch || len(ge.Ops) != len(we.Ops) {
			t.Fatalf("entry %d: got %+v want %+v", i, ge, we)
		}
		for k := range we.Ops {
			if ge.Ops[k] != we.Ops[k] {
				t.Fatalf("entry %d op %d: got %+v want %+v", i, k, ge.Ops[k], we.Ops[k])
			}
		}
	}
}

// roundTripReps are envelopes of every field shape: empty sections,
// multi-entry appends, long strings, max-range integers.
var roundTripReps = []Rep{
	{},
	{From: 65535, Peer: 65535, Shard: 65535, Epoch: 1<<64 - 1, Seq: 1<<64 - 1,
		Frontier: 1<<64 - 1, ReqID: 1<<64 - 1},
	{From: 2, Shard: 1, ReqID: 42,
		Ops: []service.Op{
			{Kind: service.OpGet, Key: "a"},
			{Kind: service.OpCAS, Key: "b", Old: "x", Val: strings.Repeat("y", 1000), ID: 7},
		}},
	{From: 1, Peer: 3, ReqID: 42,
		Results: []service.Result{{}, {OK: true, Val: "v"}}},
	{From: 1, Shard: 2, Epoch: 3, Seq: 10, Frontier: 8,
		Entries: []RepEntry{
			{Seq: 9, Epoch: 2},
			{Seq: 10, Epoch: 3, Ops: []service.Op{
				{Kind: service.OpPut, Key: "k1", Val: "v1", ID: 1},
				{Kind: service.OpPut, Key: "k2", Val: "v2", ID: 2},
			}},
		}},
	{From: 2, Acks: []RepAck{
		{Kind: AckAppended, Shard: 1, Epoch: 3, Frontier: 1<<64 - 1, Last: 3},
		{Kind: AckCommit, Shard: 65535, Epoch: 1<<64 - 1, Frontier: 7},
	}},
}

// TestRepRoundTrip round-trips roundTripReps through a whole frame.
func TestRepRoundTrip(t *testing.T) {
	for i, r := range roundTripReps {
		frame, err := AppendRepFrame(nil, OpcodeRepHeartbeat, &r)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		h, err := ParseHeader(frame)
		if err != nil || int(h.Len) != len(frame)-HeaderSize {
			t.Fatalf("case %d: header %+v, %v", i, h, err)
		}
		back, err := DecodeRep(frame[HeaderSize:])
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		assertRepEqual(t, back, r)
	}
}

// TestRepTruncation walks every strict prefix of a fully-populated
// envelope payload: each must fail typed, never panic or mis-decode.
func TestRepTruncation(t *testing.T) {
	r := &Rep{
		From: 1, Shard: 2, Epoch: 3, Seq: 4, Frontier: 5, ReqID: 6,
		Ops:     []service.Op{{Kind: service.OpCAS, Key: "key", Old: "old", Val: "val", ID: 3}},
		Results: []service.Result{{OK: true, Val: "v"}},
		Entries: []RepEntry{{Seq: 1, Epoch: 1, Ops: []service.Op{{Kind: service.OpPut, Key: "k", Val: "v"}}}},
	}
	payload := AppendRep(nil, r)
	for n := 0; n < len(payload); n++ {
		if _, err := DecodeRep(payload[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d: %v", n, err)
		}
	}
}

// TestRepMalformed covers the structural rejections: trailing bytes and
// oversized section counts.
func TestRepMalformed(t *testing.T) {
	payload := AppendRep(nil, &Rep{From: 1})
	if _, err := DecodeRep(append(payload, 0xFF)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes: %v", err)
	}

	bigEntries := AppendRep(nil, &Rep{})
	putU16(bigEntries[len(bigEntries)-4:], MaxRepEntries+1)
	if _, err := DecodeRep(bigEntries); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized entry count: %v", err)
	}

	bigOps := AppendRep(nil, &Rep{})
	putU16(bigOps[repPreambleSize:], MaxBatchOps+1)
	if _, err := DecodeRep(bigOps); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized op count: %v", err)
	}

	bigAcks := AppendRep(nil, &Rep{})
	putU16(bigAcks[len(bigAcks)-2:], MaxRepAcks+1)
	if _, err := DecodeRep(bigAcks); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized ack count: %v", err)
	}
}

// TestRepEncodeRejectsOversized: client-side framing refuses envelopes the
// receiver would reject.
func TestRepEncodeRejectsOversized(t *testing.T) {
	tooLong := strings.Repeat("x", MaxStr+1)
	bad := []*Rep{
		{Ops: []service.Op{{Kind: service.OpPut, Key: "k", Val: tooLong}}},
		{Results: []service.Result{{Val: tooLong}}},
		{Entries: []RepEntry{{Ops: []service.Op{{Kind: service.OpPut, Key: tooLong}}}}},
		{Entries: make([]RepEntry, MaxRepEntries+1)},
	}
	for i, r := range bad {
		if _, err := AppendRepFrame(nil, OpcodeRepAppend, r); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

// TestIsRepOpcode pins the §5 opcode range.
func TestIsRepOpcode(t *testing.T) {
	for _, op := range []byte{OpcodeOp, OpcodeBatch, OpcodeStats, OpcodeDrain, OpcodePing, opcodeRepRetired, 0x10, 0x7F} {
		if IsRepOpcode(op) {
			t.Fatalf("opcode 0x%02x misclassified as replication", op)
		}
	}
	for op := OpcodeRepHeartbeat; op <= OpcodeRepOwner; op++ {
		if op != opcodeRepRetired && !IsRepOpcode(op) {
			t.Fatalf("opcode 0x%02x not classified as replication", op)
		}
	}
}

// TestServerPing: the no-op round trip end to end against a live server,
// including interleaving with real ops on the same pipelined connection.
func TestServerPing(t *testing.T) {
	addr := startServer(t, service.Config{Shards: 1})
	c := dialT(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if res, err := c.Do(service.Op{Kind: service.OpPut, Key: "k", Val: "v"}); err != nil || !res.OK {
		t.Fatalf("put after ping: %+v, %v", res, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("second ping: %v", err)
	}
	c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("ping on a closed conn succeeded")
	}
}

// TestEncodedSizeAccounting: the size helpers senders budget frames with
// must agree byte-for-byte with what the encoders actually emit — an
// under-count would let a "bounded" frame exceed MaxPayload and be
// refused with ErrBadFrame on every retransmission.
func TestEncodedSizeAccounting(t *testing.T) {
	ops := []service.Op{
		{Kind: service.OpGet, ID: 1, Key: "k"},
		{Kind: service.OpPut, ID: 2, Key: "key", Val: strings.Repeat("v", 300)},
		{Kind: service.OpCAS, ID: 3, Key: "kk", Val: "new", Old: "old"},
		{},
	}
	for i, op := range ops {
		if got, want := EncodedOpSize(op), len(AppendOp(nil, op)); got != want {
			t.Fatalf("op %d: EncodedOpSize %d, encoder emits %d", i, got, want)
		}
	}
	results := []service.Result{{}, {OK: true, Val: strings.Repeat("r", 500)}}
	for i, res := range results {
		if got, want := EncodedResultSize(res), len(AppendResult(nil, res)); got != want {
			t.Fatalf("result %d: EncodedResultSize %d, encoder emits %d", i, got, want)
		}
	}
	entries := []RepEntry{
		{},
		{Seq: 9, Epoch: 2, Ops: ops},
	}
	for i, e := range entries {
		// An entry encodes as fix(16) + the §3.3 batch section.
		want := 16 + len(AppendBatch(nil, e.Ops))
		if got := EncodedEntrySize(e); got != want {
			t.Fatalf("entry %d: EncodedEntrySize %d, encoder emits %d", i, got, want)
		}
	}

	// A Rep whose sections sum exactly to the per-item sizes must encode to
	// preamble + 4 section counts + those sizes (+ the acks), and
	// MaxRepData must be the payload budget that guarantees MaxPayload
	// with a full MaxRepAcks complement piggybacked.
	r := Rep{From: 1, Shard: 2, ReqID: 3, Ops: ops, Results: results, Entries: entries,
		Acks: []RepAck{{Kind: AckAppended, Shard: 2, Epoch: 1, Frontier: 9, Last: 1}}}
	sum := 0
	for _, op := range r.Ops {
		sum += EncodedOpSize(op)
	}
	for _, res := range r.Results {
		sum += EncodedResultSize(res)
	}
	for _, e := range r.Entries {
		sum += EncodedEntrySize(e)
	}
	sum += len(r.Acks) * EncodedAckSize
	if got, want := len(AppendRep(nil, &r)), repPreambleSize+8+sum; got != want {
		t.Fatalf("AppendRep emits %d bytes, size accounting says %d", got, want)
	}
	if repPreambleSize+8+MaxRepAcks*EncodedAckSize+MaxRepData != MaxPayload {
		t.Fatalf("MaxRepData %d does not fill MaxPayload %d", MaxRepData, MaxPayload)
	}
}

// TestDecodeRepReuseZeroAllocs: decoding into a warmed Rep allocates
// nothing. The cluster's free transport decodes every inbound replication
// frame into a recycled message this way, so a route, an append, a done
// and an acks-only frame must all reuse the Rep's slices.
func TestDecodeRepReuseZeroAllocs(t *testing.T) {
	ops := []service.Op{
		{Kind: service.OpPut, Key: "key", Val: "value", ID: 1},
		{Kind: service.OpCAS, Key: "key", Old: "value", Val: "other", ID: 2},
	}
	frames := map[string]Rep{
		"route":  {From: 1, Shard: 2, ReqID: 3, Ops: ops},
		"append": {From: 1, Shard: 2, Epoch: 3, Seq: 4, Frontier: 5, Entries: []RepEntry{{Seq: 5, Epoch: 3, Ops: ops}, {Seq: 6, Epoch: 3, Ops: ops[:1]}}},
		"done":   {From: 1, Shard: 2, ReqID: 3, Frontier: 2, Results: []service.Result{{OK: true, Val: "value"}, {OK: true}}},
		"acks":   {From: 1, Acks: []RepAck{{Kind: AckAppended, Shard: 2, Epoch: 3, Frontier: 4, Last: 3}, {Kind: AckCommit, Shard: 1, Epoch: 2, Frontier: 9}}},
	}
	var r Rep
	for name, want := range frames {
		payload := AppendRep(nil, &want)
		if err := DecodeRepInto(&r, payload); err != nil { // warm r for this shape
			t.Fatalf("%s: %v", name, err)
		}
		if avg := testing.AllocsPerRun(200, func() { _ = DecodeRepInto(&r, payload) }); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, avg)
		}
		assertRepEqual(t, r, want)
	}
}

// FuzzDecodeRep: DecodeRep parses bytes from the network. Whatever the
// input, it must not panic; a fresh decode and a decode into a dirty,
// reused Rep must agree on the error and on the value; and a payload that
// decodes must re-encode to exactly its own bytes.
func FuzzDecodeRep(f *testing.F) {
	for _, r := range append([]Rep{goldenRep}, roundTripReps...) {
		f.Add(AppendRep(nil, &r))
	}
	dirty := AppendRep(nil, &Rep{
		From: 9, Peer: 9, Shard: 9, Epoch: 9, Seq: 9, Frontier: 9, ReqID: 9,
		Ops:     []service.Op{{Kind: service.OpCAS, Key: "dk", Old: "do", Val: "dv", ID: 9}, {Kind: service.OpGet, Key: "dk"}},
		Results: []service.Result{{OK: true, Val: "dr"}, {}, {OK: true}},
		Entries: []RepEntry{
			{Seq: 9, Epoch: 9, Ops: []service.Op{{Kind: service.OpPut, Key: "e", Val: "ev"}, {Kind: service.OpGet, Key: "f"}}},
			{Seq: 10, Epoch: 9},
			{Seq: 11, Epoch: 9, Ops: []service.Op{{Kind: service.OpGet, Key: "g"}}},
		},
		Acks: []RepAck{{Kind: AckCommit, Shard: 9, Epoch: 9, Frontier: 9, Last: 9}},
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		fresh, ferr := DecodeRep(b)
		var reused Rep
		if err := DecodeRepInto(&reused, dirty); err != nil {
			t.Fatal(err)
		}
		rerr := DecodeRepInto(&reused, b)
		if !errors.Is(rerr, ferr) || (rerr == nil) != (ferr == nil) {
			t.Fatalf("fresh decode: %v, reused decode: %v", ferr, rerr)
		}
		if ferr != nil {
			return
		}
		assertRepEqual(t, reused, fresh)
		if again := AppendRep(nil, &fresh); !bytes.Equal(again, b) {
			t.Fatalf("re-encoded\n got %x\nwant %x", again, b)
		}
	})
}
