package pipeline

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/stream"
)

// mergeEvents merges time-sorted per-collector event slices into one
// globally time-ordered slice through stream.Merge, the way analyses that
// span collector archives build a global order.
func mergeEvents(streams ...[]classify.Event) []classify.Event {
	sources := make([]stream.EventSource, len(streams))
	for i, s := range streams {
		sources[i] = stream.FromSlice(s)
	}
	return stream.Collect(stream.Merge(sources...))
}

func mkEvents(collector string, times ...int) []classify.Event {
	out := make([]classify.Event, len(times))
	for i, s := range times {
		out[i] = classify.Event{
			Time:      ts0.Add(time.Duration(s) * time.Second),
			Collector: collector,
			PeerAddr:  netip.MustParseAddr("10.0.0.1"),
			Prefix:    netip.MustParsePrefix("84.205.64.0/24"),
		}
	}
	return out
}

func TestMergeEventsOrdered(t *testing.T) {
	a := mkEvents("rrc00", 1, 4, 9)
	b := mkEvents("rrc01", 2, 3, 10)
	c := mkEvents("rrc02", 0, 5)
	got := mergeEvents(a, b, c)
	if len(got) != 8 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatalf("out of order at %d", i)
		}
	}
	if got[0].Collector != "rrc02" || got[len(got)-1].Collector != "rrc01" {
		t.Errorf("boundaries: %s .. %s", got[0].Collector, got[len(got)-1].Collector)
	}
}

func TestMergeEventsStableTies(t *testing.T) {
	a := mkEvents("rrc00", 5)
	b := mkEvents("rrc01", 5)
	got := mergeEvents(a, b)
	if got[0].Collector != "rrc00" || got[1].Collector != "rrc01" {
		t.Errorf("tie order: %s, %s (want input-stream order)", got[0].Collector, got[1].Collector)
	}
	// Reversed argument order flips the tie.
	got = mergeEvents(b, a)
	if got[0].Collector != "rrc01" {
		t.Errorf("tie order after swap: %s", got[0].Collector)
	}
}

func TestMergeEventsEdgeCases(t *testing.T) {
	if out := mergeEvents(); len(out) != 0 {
		t.Error("no streams should merge to empty")
	}
	if out := mergeEvents(nil, nil); len(out) != 0 {
		t.Error("nil streams should merge to empty")
	}
	single := mkEvents("rrc00", 1, 2, 3)
	out := mergeEvents(single)
	if len(out) != 3 {
		t.Errorf("single stream: %d", len(out))
	}
}

func TestMergeEventsMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var streams [][]classify.Event
	var all []classify.Event
	for s := 0; s < 7; s++ {
		n := rng.Intn(50)
		times := make([]int, n)
		for i := range times {
			times[i] = rng.Intn(1000)
		}
		sort.Ints(times)
		ev := mkEvents("c", times...)
		streams = append(streams, ev)
		all = append(all, ev...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time.Before(all[j].Time) })
	got := mergeEvents(streams...)
	if len(got) != len(all) {
		t.Fatalf("len %d vs %d", len(got), len(all))
	}
	for i := range got {
		if !got[i].Time.Equal(all[i].Time) {
			t.Fatalf("time mismatch at %d", i)
		}
	}
}
