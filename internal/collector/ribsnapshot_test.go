package collector

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/mrt"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestRIBSnapshotBootstrap verifies the bview + updates workflow: seeding
// a classifier from the TABLE_DUMP_V2 snapshot plus replaying only the
// day's updates yields exactly the same classification as replaying the
// full stream (warm-up announcements included).
func TestRIBSnapshotBootstrap(t *testing.T) {
	cfg := workload.DefaultDayConfig(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	cfg.Collectors = 2
	cfg.PeersPerCollector = 5
	cfg.PrefixesV4 = 60
	cfg.PrefixesV6 = 6
	peers, sources := workload.DaySources(cfg)

	// Reference: classify everything directly, counting only the day.
	clRef := classify.New()
	var ref classify.Counts
	for e := range stream.Merge(sources...) {
		res, ok := clRef.Observe(e)
		if !cfg.InWindow(e) {
			continue
		}
		if !ok {
			ref.Withdrawals++
			continue
		}
		ref.Add(res)
	}

	// bview + updates route.
	dir := t.TempDir()
	ribFiles, err := WriteRIBSnapshotDir(cfg.Day, sources, filepath.Join(dir, "rib"))
	if err != nil {
		t.Fatal(err)
	}
	daySources := make([]stream.EventSource, len(sources))
	for i, src := range sources {
		daySources[i] = stream.Filter(src, cfg.InWindow)
	}
	updFiles, err := WriteSourcesDir(peers, daySources, filepath.Join(dir, "upd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ribFiles) != 2 || len(updFiles) != 2 {
		t.Fatalf("files: %v / %v", ribFiles, updFiles)
	}

	norm := pipeline.NewNormalizer(registry.Synthetic(cfg.Day.AddDate(-10, 0, 0)))
	norm.RouteServers = workload.RouteServerASNs(peers)
	cl := classify.New()
	var got classify.Counts
	for name, ribPath := range ribFiles {
		f, err := os.Open(ribPath)
		if err != nil {
			t.Fatal(err)
		}
		events, err := pipeline.RIBEvents(name, mrt.NewReader(f))
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: empty RIB snapshot", name)
		}
		seeded := pipeline.SeedClassifier(cl, events)
		if seeded != len(events) {
			t.Errorf("%s: seeded %d of %d entries", name, seeded, len(events))
		}
		norm.PrimeClock(name, events)
	}
	for name, updPath := range updFiles {
		f, err := os.Open(updPath)
		if err != nil {
			t.Fatal(err)
		}
		err = norm.ProcessReader(name, mrt.NewReader(f), func(e classify.Event) error {
			got.Observe(cl, e)
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	if got.Announcements() != ref.Announcements() || got.Withdrawals != ref.Withdrawals {
		t.Fatalf("volume: got %d/%d, ref %d/%d",
			got.Announcements(), got.Withdrawals, ref.Announcements(), ref.Withdrawals)
	}
	for _, ty := range classify.Types() {
		if got.Of(ty) != ref.Of(ty) {
			t.Errorf("%v: got %d, ref %d", ty, got.Of(ty), ref.Of(ty))
		}
	}
}

// TestRIBSnapshotStructure checks the snapshot's MRT framing directly.
func TestRIBSnapshotStructure(t *testing.T) {
	// The day generator, not the beacon one: beacon days have no pre-day
	// events, so their snapshots would be empty.
	dcfg := workload.DefaultDayConfig(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	dcfg.Collectors = 1
	dcfg.PeersPerCollector = 3
	dcfg.PrefixesV4 = 20
	dcfg.PrefixesV6 = 2
	_, sources := workload.DaySources(dcfg)

	dir := t.TempDir()
	files, err := WriteRIBSnapshotDir(dcfg.Day, sources, dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, path := range files {
		if !strings.HasSuffix(path, ".bview.mrt") {
			t.Errorf("%s: filename %q", name, path)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var sawIndex bool
		var ribs int
		err = mrt.NewReader(f).Walk(func(h mrt.Header, rec mrt.Record) error {
			switch rec := rec.(type) {
			case *mrt.PeerIndexTable:
				if sawIndex {
					t.Error("duplicate peer index table")
				}
				sawIndex = true
				if rec.ViewName != "bview" || len(rec.Peers) == 0 {
					t.Errorf("index table: %+v", rec)
				}
			case *mrt.RIBUnicast:
				if !sawIndex {
					t.Error("RIB record before peer index table")
				}
				if len(rec.Entries) == 0 {
					t.Errorf("empty RIB record for %v", rec.Prefix)
				}
				ribs++
			}
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !sawIndex || ribs == 0 {
			t.Errorf("%s: index=%v ribs=%d", name, sawIndex, ribs)
		}
	}
}
