package cluster

import (
	"testing"

	"repro/internal/service"
	"repro/internal/wire"
)

// TestInboxKeepsOrderAndStopsGrowing: the head-indexed inbox pops in push
// order whatever mix of drains and near-drains it sees, hands shutdown the
// unpopped tail only, and — the point of the index — stops growing its
// array once it fits the standing backlog, drained or not.
func TestInboxKeepsOrderAndStopsGrowing(t *testing.T) {
	in := &inbox{notify: make(chan struct{}, 1)}
	next, want := uint64(0), uint64(0)
	push := func() {
		in.push(&message{rep: wire.Rep{Seq: next}})
		next++
	}
	pop := func() {
		t.Helper()
		m := in.tryPop()
		if m == nil || m.rep.Seq != want {
			t.Fatalf("popped %+v, want seq %d", m, want)
		}
		want++
	}
	for backlog := 0; backlog < 3; backlog++ { // 0: drains every round
		for i := 0; i < backlog; i++ {
			push()
		}
		for round := 0; round < 1000; round++ {
			push()
			push()
			pop()
			pop()
		}
		if c := cap(in.q.q); c > 16 {
			t.Fatalf("array grew to %d slots under a standing backlog of %d", c, backlog)
		}
		for i := 0; i < backlog; i++ {
			pop()
		}
		if in.tryPop() != nil {
			t.Fatal("pop from an empty inbox")
		}
	}
	push()
	push()
	push()
	pop()
	rest := in.closeAndDrain()
	if len(rest) != 2 || rest[0].rep.Seq != want || rest[1].rep.Seq != want+1 {
		t.Fatalf("drained %d messages starting at %+v, want the 2 unpopped", len(rest), rest)
	}
	if in.push(&message{}) {
		t.Fatal("push into a sealed inbox succeeded")
	}
}

// TestShardLogTruncatesInPlace: truncate clears and steps over the dropped
// prefix without moving what it keeps, appendLocal moves the retained
// entries to a new array only when the old one is used up (and never writes
// a slot twice: a slice taken for a frame keeps reading the entries it was
// taken over, or cleared ones), and entryAt/entriesFrom stay right across
// both.
func TestShardLogTruncatesInPlace(t *testing.T) {
	sr := &shardRep{}
	entry := func(seq uint64) wire.RepEntry {
		return wire.RepEntry{Seq: seq, Epoch: 1, Ops: []service.Op{{Kind: service.OpPut, Key: "k", ID: seq}}}
	}
	check := func() {
		t.Helper()
		if got := uint64(len(sr.entries)); got != sr.frontier-sr.base {
			t.Fatalf("%d entries retained for (%d, %d]", got, sr.base, sr.frontier)
		}
		for seq := sr.base + 1; seq <= sr.frontier; seq++ {
			if e := sr.entryAt(seq); e == nil || e.Seq != seq {
				t.Fatalf("entryAt(%d) = %+v", seq, e)
			}
		}
		if sr.entryAt(sr.base) != nil || sr.entryAt(sr.frontier+1) != nil {
			t.Fatal("entryAt outside (base, frontier] must be nil")
		}
	}
	moves := 0
	var frame []wire.RepEntry // what a frame in flight would hold
	for seq := uint64(1); seq <= 10*minLogCap; seq++ {
		before := cap(sr.entries)
		sr.appendLocal(entry(seq))
		if cap(sr.entries) > before {
			moves++
		}
		check()
		if seq == 5 {
			frame = sr.entriesFrom(3, 3)
		}
		if seq > 3 { // retain a window of 3
			sr.truncate(seq - 3)
			check()
		}
	}
	if moves > 10*minLogCap/(minLogCap-3)+1 {
		t.Errorf("the retained window moved to a new array %d times in %d appends", moves, 10*minLogCap)
	}
	for i, e := range frame {
		if e.Seq != 0 && e.Seq != uint64(3+i) {
			t.Errorf("frame slot %d was rewritten: %+v", i, e)
		}
		if e.Seq == 0 && e.Ops != nil {
			t.Errorf("frame slot %d cleared but still holds its ops", i)
		}
	}
	if frame[0].Seq != 0 {
		t.Error("a dropped entry was not cleared")
	}
	// onAppend's conflict rule: a capped prefix makes the next append copy.
	old := sr.entries
	sr.entries = sr.entries[:1:1]
	sr.frontier = sr.base + 1
	sr.appendLocal(wire.RepEntry{Seq: sr.frontier + 1, Epoch: 2})
	if old[1].Epoch != 1 {
		t.Error("append after a capped prefix wrote into the shared array")
	}
	check()
}
