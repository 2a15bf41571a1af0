package collector

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/classify"
	"repro/internal/mrt"
	"repro/internal/pipeline"
	"repro/internal/session"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestLiveCollectorEndToEnd drives the full real-networking loop: a BGP
// speaker dials the live collector over TCP, replays a beacon stream's
// updates, the collector archives MRT, and the measurement pipeline
// classifies the archive — community exploration must survive the trip.
func TestLiveCollectorEndToEnd(t *testing.T) {
	var archive bytes.Buffer
	lc, err := NewLiveCollector("127.0.0.1:0", &archive, 12654, netip.MustParseAddr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	// Deterministic, strictly increasing timestamps.
	base := time.Date(2020, 3, 15, 2, 0, 0, 0, time.UTC)
	var tick int64
	var clockMu sync.Mutex
	lc.SetClock(func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	})

	served := make(chan error, 1)
	go func() { served <- lc.ServeOne() }()

	s, err := session.Dial(lc.Addr(), session.Config{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("10.0.0.1"),
		HoldTime: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()

	// A community-exploration burst followed by a withdrawal, then a
	// re-announcement: pc, nc, nc, W, pc at the classifier.
	prefix := netip.MustParsePrefix("84.205.64.0/24")
	send := func(comms bgp.Communities) {
		u := &bgp.Update{
			NLRI: []netip.Prefix{prefix},
			Attrs: bgp.PathAttrs{
				Origin:      bgp.OriginIGP,
				ASPath:      bgp.NewASPath(65001, 3356, 12654),
				NextHop:     netip.MustParseAddr("10.0.0.1"),
				Communities: comms,
			},
		}
		if err := s.Send(u); err != nil {
			t.Fatal(err)
		}
	}
	send(bgp.Communities{bgp.NewCommunity(3356, 2001)})
	send(bgp.Communities{bgp.NewCommunity(3356, 2002)})
	send(bgp.Communities{bgp.NewCommunity(3356, 2003)})
	if err := s.Send(&bgp.Update{Withdrawn: []netip.Prefix{prefix}}); err != nil {
		t.Fatal(err)
	}
	send(bgp.Communities{bgp.NewCommunity(3356, 2001)})

	// Wait for all five records, then close the session.
	deadline := time.Now().Add(5 * time.Second)
	for lc.Records() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 5 records archived", lc.Records())
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Close()
	if err := <-served; err != nil {
		t.Fatalf("collector session: %v", err)
	}

	// Classify the archive through the standard pipeline (no registry:
	// the test prefix set is tiny).
	norm := pipeline.NewNormalizer(nil)
	cl := classify.New()
	var counts classify.Counts
	err = norm.ProcessReader("live00", mrt.NewReader(&archive), func(e classify.Event) error {
		counts.Observe(cl, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts.Announcements() != 4 || counts.Withdrawals != 1 {
		t.Fatalf("counts: %+v", counts)
	}
	if counts.Of(classify.PC) != 2 { // stream opener + post-withdrawal reopener
		t.Errorf("pc = %d, want 2", counts.Of(classify.PC))
	}
	if counts.Of(classify.NC) != 2 { // the community exploration
		t.Errorf("nc = %d, want 2", counts.Of(classify.NC))
	}
}

// TestLiveCollectorManyUpdates stress-feeds a workload slice over TCP.
func TestLiveCollectorManyUpdates(t *testing.T) {
	cfg := workload.DefaultBeaconConfig(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	cfg.Collectors = 1
	cfg.PeersPerCollector = 2
	_, sources := workload.BeaconSources(cfg)
	events := stream.Collect(stream.Merge(sources...))
	if len(events) < 100 {
		t.Fatalf("dataset too small: %d", len(events))
	}
	events = events[:100]

	var archive bytes.Buffer
	lc, err := NewLiveCollector("127.0.0.1:0", &archive, 12654, netip.MustParseAddr("198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	served := make(chan error, 1)
	go func() { served <- lc.ServeOne() }()

	s, err := session.Dial(lc.Addr(), session.Config{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("10.0.0.2"),
		HoldTime: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()

	for _, e := range events {
		var u bgp.Update
		if e.Withdraw {
			u.Withdrawn = []netip.Prefix{e.Prefix}
		} else {
			u.NLRI = []netip.Prefix{e.Prefix}
			u.Attrs = bgp.PathAttrs{
				Origin:      bgp.OriginIGP,
				ASPath:      e.ASPath,
				NextHop:     netip.MustParseAddr("10.0.0.2"),
				Communities: e.Communities,
			}
		}
		if err := s.Send(&u); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for lc.Records() < len(events) {
		if time.Now().After(deadline) {
			t.Fatalf("archived %d of %d", lc.Records(), len(events))
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Close()
	<-served

	n := 0
	err = mrt.NewReader(&archive).Walk(func(mrt.Header, mrt.Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Errorf("archive records = %d, want %d", n, len(events))
	}
}
