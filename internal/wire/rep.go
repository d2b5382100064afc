package wire

import "repro/internal/service"

// Replication envelope (docs/PROTOCOL.md §5.1). Every OpcodeRep* frame
// carries the same payload shape — a fixed 38-byte preamble followed by
// four counted sections — and the opcode alone distinguishes message
// kinds. Fields unused by a kind are zero on the wire; a few are
// overloaded where a second integer is needed (Seq carries the candidate's
// last-entry epoch in Vote/VoteOK/Owner frames and the owner's log floor
// in Append frames, Peer carries the subject node in Redirect/Owner
// frames). internal/cluster documents the per-kind
// field meanings next to its message constructors.
//
//	preamble = from(2) peer(2) shard(2) epoch(8) seq(8) frontier(8) reqid(8)
//	payload  = preamble  nops(2) op...  nresults(2) result...
//	           nentries(2) entry...  nacks(2) ack...
//	entry    = seq(8) epoch(8) nops(2) op...
//	ack      = kind(1) shard(2) epoch(8) frontier(8) last(8)
//
// The op and result encodings are exactly §3.2's; counts are bounded by
// MaxBatchOps (ops, results), MaxRepEntries (entries) and MaxRepAcks
// (acks). The acks section lets any frame piggyback per-shard
// acknowledgements — a follower folds its cumulative appended-frontier ack
// into whatever it sends next, an owner folds its commit-frontier
// keepalives into heartbeats — so the steady-state protocol needs no
// dedicated ack frame per append.

// MaxRepEntries is the largest entry count in one RepAppend frame
// (docs/PROTOCOL.md §5.1). Owners chunk longer suffixes across frames.
const MaxRepEntries = 1024

// MaxRepAcks is the largest piggybacked-ack count in one frame; senders
// with more dirty shards spread them across frames.
const MaxRepAcks = 64

// Piggybacked-ack kinds (RepAck.Kind, docs/PROTOCOL.md §5.1).
const (
	// AckAppended is a follower's cumulative acknowledgement: Frontier is
	// the prefix of the owner's log it holds (appended, not necessarily
	// applied), Last its own committed frontier.
	AckAppended byte = 0
	// AckCommit is an owner's commit-frontier keepalive: Frontier is the
	// shard's committed frontier under Epoch, Last the owner's log floor.
	AckCommit byte = 1
)

// EncodedAckSize is the fixed encoded length of one piggybacked ack.
const EncodedAckSize = 27

// repPreambleSize is the fixed-size prefix of every Rep payload.
const repPreambleSize = 38

// MaxRepData is the byte budget for a Rep payload's ops, results and
// entries sections combined (including the per-entry fixed overhead,
// excluding the four top-level section counts): a payload whose sections
// fit MaxRepData always fits MaxPayload even with a full complement of
// MaxRepAcks piggybacked acks attached. Senders bound what they put in a
// frame against it — EncodedOpSize, EncodedResultSize and
// EncodedEntrySize give the per-item costs — so AppendRepFrame never has
// to refuse a frame the protocol needs to send.
const MaxRepData = MaxPayload - repPreambleSize - 8 - MaxRepAcks*EncodedAckSize

// EncodedOpSize returns the §3.2 encoded length of one op:
// kind(1) id(8) key(2+n) val(2+n) old(2+n).
func EncodedOpSize(op service.Op) int {
	return 15 + len(op.Key) + len(op.Val) + len(op.Old)
}

// EncodedResultSize returns the §3.2 encoded length of one result:
// ok(1) val(2+n).
func EncodedResultSize(res service.Result) int {
	return 3 + len(res.Val)
}

// EncodedEntrySize returns the §5.1 encoded length of one log entry:
// seq(8) epoch(8) nops(2) op... The zero entry's 18 bytes are the fixed
// per-entry overhead.
func EncodedEntrySize(e RepEntry) int {
	n := 18
	for _, op := range e.Ops {
		n += EncodedOpSize(op)
	}
	return n
}

// RepEntry is one log entry as replicated: the owner-assigned entry
// sequence number, the owner epoch that appended it, and the client ops it
// carries in commit order.
type RepEntry struct {
	Seq   uint64
	Epoch uint64
	Ops   []service.Op
}

// RepAck is one piggybacked per-shard acknowledgement (docs/PROTOCOL.md
// §5.1): Kind selects the direction (AckAppended: follower → owner,
// AckCommit: owner → follower).
type RepAck struct {
	Kind     byte
	Shard    uint16
	Epoch    uint64
	Frontier uint64
	Last     uint64
}

// Rep is the decoded replication envelope. From is always the sending
// node; the remaining fields are kind-specific (see the OpcodeRep*
// constants and docs/PROTOCOL.md §5.2). Acks may ride on any frame.
type Rep struct {
	From     uint16
	Peer     uint16
	Shard    uint16
	Epoch    uint64
	Seq      uint64
	Frontier uint64
	ReqID    uint64
	Ops      []service.Op
	Results  []service.Result
	Entries  []RepEntry
	Acks     []RepAck
}

// AppendRep appends the encoded envelope payload (no header).
func AppendRep(dst []byte, r *Rep) []byte {
	var pre [repPreambleSize]byte
	putU16(pre[0:], r.From)
	putU16(pre[2:], r.Peer)
	putU16(pre[4:], r.Shard)
	putU64(pre[6:], r.Epoch)
	putU64(pre[14:], r.Seq)
	putU64(pre[22:], r.Frontier)
	putU64(pre[30:], r.ReqID)
	dst = append(dst, pre[:]...)
	dst = AppendBatch(dst, r.Ops)
	dst = AppendResults(dst, r.Results)
	var c [2]byte
	putU16(c[:], uint16(len(r.Entries)))
	dst = append(dst, c[:]...)
	for i := range r.Entries {
		e := &r.Entries[i]
		var fix [16]byte
		putU64(fix[0:], e.Seq)
		putU64(fix[8:], e.Epoch)
		dst = append(dst, fix[:]...)
		dst = AppendBatch(dst, e.Ops)
	}
	putU16(c[:], uint16(len(r.Acks)))
	dst = append(dst, c[:]...)
	for _, a := range r.Acks {
		var fix [EncodedAckSize]byte
		fix[0] = a.Kind
		putU16(fix[1:], a.Shard)
		putU64(fix[3:], a.Epoch)
		putU64(fix[11:], a.Frontier)
		putU64(fix[19:], a.Last)
		dst = append(dst, fix[:]...)
	}
	return dst
}

// repSizeOK validates the envelope's counts and string lengths before
// encoding, mirroring AppendBatchFrame's client-side refusal of frames the
// receiver would reject.
func repSizeOK(r *Rep) bool {
	if len(r.Ops) > MaxBatchOps || len(r.Results) > MaxBatchOps ||
		len(r.Entries) > MaxRepEntries || len(r.Acks) > MaxRepAcks {
		return false
	}
	for _, op := range r.Ops {
		if !opSizeOK(op) {
			return false
		}
	}
	for _, res := range r.Results {
		if len(res.Val) > MaxStr {
			return false
		}
	}
	for i := range r.Entries {
		if len(r.Entries[i].Ops) > MaxBatchOps {
			return false
		}
		for _, op := range r.Entries[i].Ops {
			if !opSizeOK(op) {
				return false
			}
		}
	}
	return true
}

// AppendRepFrame appends a complete replication frame: a §2.1 header with
// the given OpcodeRep* opcode, no flags, reqid 0 (correlation lives in the
// payload), around the §5.1 envelope payload. Oversized envelopes are
// refused with ErrBadFrame.
func AppendRepFrame(dst []byte, opcode byte, r *Rep) ([]byte, error) {
	if !repSizeOK(r) {
		return dst, ErrBadFrame
	}
	dst, start := beginFrame(dst, opcode, 0, 0)
	dst = AppendRep(dst, r)
	if len(dst)-start-HeaderSize > MaxPayload {
		return dst[:start], ErrBadFrame
	}
	return endFrame(dst, start), nil
}

// DecodeRep decodes a whole envelope payload into a fresh Rep: DecodeRepInto
// over the zero value.
func DecodeRep(b []byte) (Rep, error) {
	var r Rep
	if err := DecodeRepInto(&r, b); err != nil {
		return Rep{}, err
	}
	return r, nil
}

// DecodeRepInto decodes a whole envelope payload into r, reusing r's
// slices: every section is resliced to zero and appended to, each entry's
// ops included, so a Rep decoded into frame after frame stops allocating
// once its slices fit the frames it sees. Decoded into the zero Rep, empty
// sections stay nil. Strings alias b (see DecodeOp's contract): a caller
// that recycles b must copy what it keeps of r before it does. The payload
// must be exactly consumed — trailing bytes are ErrBadFrame. On error r
// holds a partial decode.
func DecodeRepInto(r *Rep, b []byte) error {
	if len(b) < repPreambleSize {
		return ErrTruncated
	}
	r.From = getU16(b[0:])
	r.Peer = getU16(b[2:])
	r.Shard = getU16(b[4:])
	r.Epoch = getU64(b[6:])
	r.Seq = getU64(b[14:])
	r.Frontier = getU64(b[22:])
	r.ReqID = getU64(b[30:])
	i := repPreambleSize
	var err error
	if r.Ops, i, err = decOps(r.Ops[:0], b, i); err != nil {
		return err
	}
	if r.Results, i, err = decResults(r.Results[:0], b, i); err != nil {
		return err
	}
	if len(b)-i < 2 {
		return ErrTruncated
	}
	nent := int(getU16(b[i:]))
	i += 2
	if nent > MaxRepEntries {
		return ErrBadFrame
	}
	r.Entries = reuse(r.Entries, nent)
	for k := 0; k < nent; k++ {
		if len(b)-i < 16 {
			return ErrTruncated
		}
		r.Entries = r.Entries[:k+1]
		e := &r.Entries[k]
		e.Seq = getU64(b[i:])
		e.Epoch = getU64(b[i+8:])
		i += 16
		if e.Ops, i, err = decOps(e.Ops[:0], b, i); err != nil {
			return err
		}
	}
	if len(b)-i < 2 {
		return ErrTruncated
	}
	nacks := int(getU16(b[i:]))
	i += 2
	if nacks > MaxRepAcks {
		return ErrBadFrame
	}
	if len(b)-i < nacks*EncodedAckSize {
		return ErrTruncated
	}
	r.Acks = reuse(r.Acks, nacks)
	for k := 0; k < nacks; k++ {
		r.Acks = append(r.Acks, RepAck{
			Kind:     b[i],
			Shard:    getU16(b[i+1:]),
			Epoch:    getU64(b[i+3:]),
			Frontier: getU64(b[i+11:]),
			Last:     getU64(b[i+19:]),
		})
		i += EncodedAckSize
	}
	if i != len(b) {
		return ErrBadFrame
	}
	return nil
}

// reuse returns s emptied, with room for n elements: s's own array when it
// has the room (or n is 0), else a new one of exactly n.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// decOps decodes one §3.3 counted op section starting at b[i], appending
// the ops to dst (see reuse), and returns the cursor past the section.
func decOps(dst []service.Op, b []byte, i int) ([]service.Op, int, error) {
	if len(b)-i < 2 {
		return dst, 0, ErrTruncated
	}
	count := int(getU16(b[i:]))
	i += 2
	if count > MaxBatchOps {
		return dst, 0, ErrBadFrame
	}
	dst = reuse(dst, count)
	for k := 0; k < count; k++ {
		op, n, err := DecodeOp(b[i:])
		if err != nil {
			return dst, 0, err
		}
		dst = append(dst, op)
		i += n
	}
	return dst, i, nil
}

// decResults decodes one counted result section starting at b[i],
// appending to dst (see reuse).
func decResults(dst []service.Result, b []byte, i int) ([]service.Result, int, error) {
	if len(b)-i < 2 {
		return dst, 0, ErrTruncated
	}
	count := int(getU16(b[i:]))
	i += 2
	if count > MaxBatchOps {
		return dst, 0, ErrBadFrame
	}
	dst = reuse(dst, count)
	for k := 0; k < count; k++ {
		res, n, err := DecodeResult(b[i:])
		if err != nil {
			return dst, 0, err
		}
		dst = append(dst, res)
		i += n
	}
	return dst, i, nil
}

// IsRepOpcode reports whether op is one of the one-way replication
// opcodes (docs/PROTOCOL.md §5).
func IsRepOpcode(op byte) bool {
	return op >= OpcodeRepHeartbeat && op <= OpcodeRepOwner && op != opcodeRepRetired
}
