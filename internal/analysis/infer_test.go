package analysis

import (
	"testing"

	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/workload"
)

func TestInferPeerBehaviorOnBeaconData(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	inferences := InferPeerBehaviorStream(ds.source(), ds.inWindow)
	if len(inferences) == 0 {
		t.Fatal("no inferences")
	}
	// Every peer session that announced anything is covered.
	if len(inferences) != len(ds.peers) {
		t.Errorf("inferences = %d, peers = %d", len(inferences), len(ds.peers))
	}
	// The beacon workload exercises the mechanisms strongly, so inference
	// should be near-perfect.
	acc := InferenceAccuracyPeers(ds.peers, inferences)
	if acc < 0.9 {
		t.Errorf("accuracy = %.2f, want >= 0.9", acc)
	}
	// All three classes are represented.
	seen := map[PeerBehavior]int{}
	for _, inf := range inferences {
		seen[inf.Behavior]++
		if inf.Announcements == 0 {
			t.Errorf("session %v: zero announcements", inf.Session)
		}
	}
	if seen[BehaviorPropagates] == 0 || seen[BehaviorCleansEgress] == 0 || seen[BehaviorQuiet] == 0 {
		t.Errorf("class coverage: %v", seen)
	}
}

func TestInferPeerBehaviorOnDayData(t *testing.T) {
	ds := smallDay()
	inferences := InferPeerBehaviorStream(ds.source(), ds.inWindow)
	acc := InferenceAccuracyPeers(ds.peers, inferences)
	// The wild-style day data is noisier than the beacon view; accuracy
	// must still be well above random guessing among three classes.
	if acc < 0.7 {
		t.Errorf("accuracy = %.2f, want >= 0.7", acc)
	}
}

func TestInferPeerBehaviorEvidence(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	for _, inf := range InferPeerBehaviorStream(ds.source(), ds.inWindow) {
		switch inf.Behavior {
		case BehaviorPropagates:
			if inf.CommShare <= commShareThreshold {
				t.Errorf("%v: propagates with comm share %.2f", inf.Session, inf.CommShare)
			}
		case BehaviorCleansEgress:
			if inf.CommShare > commShareThreshold || inf.NNShare <= nnShareThreshold {
				t.Errorf("%v: cleans-egress with comm %.2f nn %.2f", inf.Session, inf.CommShare, inf.NNShare)
			}
		case BehaviorQuiet:
			if inf.CommShare > commShareThreshold {
				t.Errorf("%v: quiet with comm share %.2f", inf.Session, inf.CommShare)
			}
		}
	}
}

func TestInferenceAccuracyEmpty(t *testing.T) {
	ds := smallDay()
	if InferenceAccuracyPeers(ds.peers, nil) != 0 {
		t.Error("empty inference accuracy should be 0")
	}
}

func TestInferIngressLocations(t *testing.T) {
	cfg := smallBeaconCfg()
	ds := beaconDay(cfg)
	infs := InferIngressLocationsStream(ds.source())
	if len(infs) == 0 {
		t.Fatal("no ingress inferences")
	}
	// Only transparent tagged peers leak locations; each leaks several
	// (steady + exploration pools).
	taggedTransparent := map[uint32]bool{}
	for _, p := range ds.peers {
		if p.TaggedUpstream && p.Kind == workload.PeerTransparent {
			taggedTransparent[p.AS] = true
		}
	}
	for _, inf := range infs {
		if !taggedTransparent[inf.PeerAS] {
			t.Errorf("peer AS%d leaks locations but is not transparent+tagged", inf.PeerAS)
		}
		if inf.Locations < 2 {
			t.Errorf("peer AS%d: only %d locations (exploration should reveal more)", inf.PeerAS, inf.Locations)
		}
		if inf.Locations > cfg.SteadyLocations+cfg.WithdrawLocations+cfg.AnnounceExtraLocs {
			t.Errorf("peer AS%d: %d locations exceeds the generator's pool", inf.PeerAS, inf.Locations)
		}
	}
	// Sorted output.
	for i := 1; i < len(infs); i++ {
		if infs[i].PeerAS < infs[i-1].PeerAS {
			t.Fatal("output not sorted")
		}
	}
}

func TestBehaviorString(t *testing.T) {
	if BehaviorPropagates.String() != "propagates" ||
		BehaviorCleansEgress.String() != "cleans-egress" ||
		BehaviorQuiet.String() != "quiet" {
		t.Error("behavior strings")
	}
	if PeerBehavior(9).String() != "behavior(9)" {
		t.Error("unknown behavior string")
	}
}

func TestInferenceSessionsMatchClassifierSessions(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	infs := InferPeerBehaviorStream(ds.source(), ds.inWindow)
	sessions := make(map[classify.SessionKey]bool)
	for _, e := range ds.events {
		sessions[e.Session()] = true
	}
	for _, inf := range infs {
		if !sessions[inf.Session] {
			t.Errorf("inferred session %v never appeared in events", inf.Session)
		}
	}
}

func TestGeoBreakdownFor(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	session, backup := findStream(t, ds, workload.PeerTransparent, true)
	prefix := beacon.RIPEBeacons()[0].Prefix
	gb := GeoBreakdownStream(ds.source(), session, prefix.String(), backup)
	// The generator always attaches a city community, usually a country,
	// sometimes a region (mirroring the §6 observation of 9 cities, two
	// countries, two regions on a single route).
	if gb.Cities == 0 {
		t.Errorf("no city communities on an exploration path: %+v", gb)
	}
	if gb.Cities < gb.Regions {
		t.Errorf("cities should dominate regions: %+v", gb)
	}
	if gb.Other != 0 {
		t.Errorf("unexpected non-geo communities: %+v", gb)
	}
}

func TestGeoBreakdownEmptyForUnknownRoute(t *testing.T) {
	ds := beaconDay(smallBeaconCfg())
	gb := GeoBreakdownStream(ds.source(), classify.SessionKey{Collector: "nope"}, "0.0.0.0/0", "1 2 3")
	if gb != (GeoBreakdown{}) {
		t.Errorf("unknown route: %+v", gb)
	}
}
