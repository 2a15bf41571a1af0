package evstore_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/evstore"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestShardPoolErrors drives the worker pool shared by ScanParallel and
// SnapshotIndex.Query down its failure paths: a corrupt partition the
// query has to decode, and a context cancelled before the call, must
// each surface an error from both entry points — never a partial
// answer and never a hang.
func TestShardPoolErrors(t *testing.T) {
	cfg := smallDayConfig()
	window := evstore.TimeRange{From: cfg.Day, To: cfg.Day.Add(24 * time.Hour)}
	cases := []struct {
		name    string
		corrupt bool
		cancel  bool
		want    error // nil: any error
	}{
		{name: "corrupt partition", corrupt: true},
		{name: "cancelled context", cancel: true, want: context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, sources := workload.DaySources(cfg)
			dir := ingest(t, stream.Concat(sources...))
			ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
			if err != nil {
				t.Fatal(err)
			}
			if tc.corrupt {
				// After the sidecars are built: the size mismatch makes
				// the planner send the partition to a residual scan.
				corruptOnePartition(t, dir)
			}
			ctx := context.Background()
			if tc.cancel {
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				ctx = cctx
			}
			check := func(path string, err error) {
				t.Helper()
				switch {
				case err == nil:
					t.Errorf("%s: want error", path)
				case tc.want != nil && !errors.Is(err, tc.want):
					t.Errorf("%s: error %v, want %v", path, err, tc.want)
				}
			}
			_, err = evstore.ScanParallel(ctx, dir, evstore.Query{}, window, 2, analysis.NewCounts())
			check("ScanParallel", err)
			_, err = ix.Query(ctx, evstore.Query{Window: window}, 2, snapNamed()...)
			check("SnapshotIndex.Query", err)
		})
	}
}

// TestSnapshotConcurrentRefresh: refreshes racing each other after live
// appends — a daemon's watcher and an explicit Refresh — must all
// succeed (each writes sidecars through its own temp file) and leave
// the index on the store's newest manifest, never an older view.
func TestSnapshotConcurrentRefresh(t *testing.T) {
	cfg := smallDayConfig()
	_, sources := workload.DaySources(cfg)
	dir := ingest(t, stream.Concat(sources...))
	ix, _, err := evstore.OpenSnapshotIndex(context.Background(), dir, snapNamed())
	if err != nil {
		t.Fatal(err)
	}
	const days, refreshers = 6, 6
	for d := 1; d <= days; d++ {
		next := cfg
		next.Day = cfg.Day.Add(time.Duration(d) * 24 * time.Hour)
		_, sources := workload.DaySources(next)
		w, err := evstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Ingest(stream.Concat(sources...)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		errs := make([]error, refreshers)
		for r := range refreshers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[r] = ix.Refresh(context.Background())
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("day %d: refresh %d: %v", d, r, err)
			}
		}
		want, err := evstore.LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.Manifest(); !reflect.DeepEqual(got, want) {
			t.Fatalf("day %d: index on %d partitions, store has %d", d, len(got.Partitions), len(want.Partitions))
		}
		if parts, snapped := ix.Coverage(); snapped != parts {
			t.Fatalf("day %d: coverage %d/%d", d, snapped, parts)
		}
	}
}
