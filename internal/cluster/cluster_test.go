package cluster

import "testing"

// TestTimingRatios pins the orderings between the timers that the node
// code relies on, in both tables. Each row names where it is relied on.
// One ordering is deliberately absent: the free transport redials a down
// peer only every dialBackoff (250ms), longer than free mode's 150ms
// ownerTimeout, so a node that boots before its peers listen elects
// (ROADMAP item 1).
func TestTimingRatios(t *testing.T) {
	rows := []struct {
		name string
		ok   func(timing) bool
	}{
		// node.go:406 wakes the loop every tickEvery and node.go:525 checks
		// for a due heartbeat only then.
		{"tick < heartbeat", func(c timing) bool { return c.tickEvery < c.heartbeatEvery }},
		// election.go:56 and :107 start an election after ownerTimeout of
		// silence; a lost heartbeat or two must not trigger one.
		{"4 heartbeats per ownerTimeout", func(c timing) bool { return 4*c.heartbeatEvery <= c.ownerTimeout }},
		// owner.go:131 resends a lost append before frontend.go:140 resends
		// the route, which the owner would append a second time.
		{"retransmit < route", func(c timing) bool { return c.retransmitEvery < c.routeTimeout }},
		// frontend.go:140 resends a lost route to the owner it believes in
		// before frontend.go:148 may give that owner up as silent.
		{"route < ownerTimeout", func(c timing) bool { return c.routeTimeout < c.ownerTimeout }},
		// election.go:56 staggers candidates by rank; a stagger under one
		// heartbeat period would start the next-ranked candidate before it
		// could hear the preferred one win.
		{"heartbeat < stagger", func(c timing) bool { return c.heartbeatEvery < c.electionStagger }},
		// election.go:59 gives a campaign longer than a follower's
		// timeout to gather votes before it retries at a higher epoch.
		{"ownerTimeout < election backoff", func(c timing) bool { return c.ownerTimeout < c.electionBackoff }},
	}
	for _, tab := range []struct {
		name string
		t    timing
	}{{"free", freeTiming}, {"virtual", virtualTiming}} {
		for _, r := range rows {
			if !r.ok(tab.t) {
				t.Errorf("%s timing breaks %s: %+v", tab.name, r.name, tab.t)
			}
		}
	}
}
