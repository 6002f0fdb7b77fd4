package coll

import "testing"

// TestRingLargeTeamSmallMessage is the regression test for the pipelined
// ring's early-arrival hazard: at 16 ranks and small blocks the left
// neighbor runs a step ahead, which boolean step-tracking miscounted
// (deadlock). Counters must absorb it.
func TestRingLargeTeamSmallMessage(t *testing.T) {
	for _, n := range []int{4096, 65536} {
		_, _, team := buildTeam(t, 16, Config{VerifyData: true})
		if _, err := runN(team, (*Team).StartRingAllgather, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := team.VerifyAllgather(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	// Reduce-scatter variant of the same hazard.
	_, _, team := buildTeam(t, 16, Config{})
	if _, err := runN(team, (*Team).StartRingReduceScatter, 4096); err != nil {
		t.Fatal(err)
	}
}
