package main

import (
	"math"
	"testing"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 50},
		{Start: 10, End: 30},  // overlaps the first: [10,50] is covered once
		{Start: 70, End: 80},  // disjoint
		{Start: 90, End: 120}, // runs past the parent: only [90,100] counts
		{Start: 40, End: 45},  // nested inside covered time
	}
	// Covered: [10,50] + [70,80] + [90,100] = 60.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := selfTime(parent, []span{{Start: -5, End: 200}}); got != 0 {
		t.Errorf("selfTime fully covered = %d, want 0", got)
	}
}

func TestLedgerFollowsBlockingChild(t *testing.T) {
	const msn = 1_000_000 // ns per ms
	spans := []span{
		{ID: 1, Name: spanClient, Start: 0, End: 100 * msn},
		{ID: 2, Parent: 1, Name: spanHandler, Start: 10 * msn, End: 90 * msn},
		{ID: 3, Parent: 2, Name: spanBackend, Start: 20 * msn, End: 60 * msn},
		// Two shards: the path follows the one that ended last.
		{ID: 4, Parent: 3, Name: spanRemote, Start: 25 * msn, End: 40 * msn, Join: "0/a"},
		{ID: 5, Parent: 3, Name: spanRemote, Start: 25 * msn, End: 55 * msn, Join: "1/b"},
		// The shard handlers carry only a join key; the tree links them.
		{ID: 6, Name: spanShardHandler, Start: 27 * msn, End: 38 * msn, Join: "0/a"},
		{ID: 7, Name: spanShardHandler, Start: 30 * msn, End: 50 * msn, Join: "1/b"},
	}
	tree := buildTree(spans)
	if p := tree.byID[7].Parent; p != 5 {
		t.Fatalf("shard handler joined to %d, want 5", p)
	}
	if p := tree.byID[6].Parent; p != 4 {
		t.Fatalf("shard handler joined to %d, want 4", p)
	}
	l := tree.ledger()
	want := map[string]float64{
		spanHandler:      40, // 80 - 40
		spanBackend:      10, // 40 - 30
		spanRemote:       10, // 30 - 20
		spanShardHandler: 20, // leaf
	}
	for name, w := range want {
		if got := l.Layers[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("path %s = %v ms, want %v", name, got, w)
		}
	}
	if math.Abs(l.Unexplained-20) > 1e-9 || math.Abs(l.ClientMean-100) > 1e-9 {
		t.Errorf("unexplained %v of %v ms, want 20 of 100", l.Unexplained, l.ClientMean)
	}
	var sum float64
	for _, v := range l.Layers {
		sum += v
	}
	if math.Abs(sum+l.Unexplained-l.ClientMean) > 1e-9 {
		t.Errorf("ledger does not add up: layers %v + unexplained %v != client %v", sum, l.Unexplained, l.ClientMean)
	}
	if got := l.SelfP50[spanClient]; got != 20 {
		t.Errorf("client self p50 = %v, want 20", got)
	}
}
