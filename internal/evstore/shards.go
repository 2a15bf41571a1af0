package evstore

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/stream"
)

// Shard is one independently scannable slice of a store: every
// partition of one collector, in (day, seq) order. Sessions are keyed
// by (collector, peer address), so a collector's whole timeline —
// including multi-day ingests whose classifier state carries across
// days — lives inside one shard, and classifying shards with fresh
// classifiers yields results bit-identical to one sequential Scan.
// (Partition files whose names don't parse are grouped into a single
// catch-all shard in listing order, which likewise preserves the
// sequential scan's per-session order.)
type Shard struct {
	// Collector is the sanitized collector name from the partition file
	// names ("" for the catch-all shard of foreign names).
	Collector string
	entries   []storeEntry
	cq        *compiledQuery
}

// Partitions returns the shard's partition file paths in scan order.
func (s Shard) Partitions() []string {
	paths := make([]string, len(s.entries))
	for i, e := range s.entries {
		paths[i] = e.path
	}
	return paths
}

// Events returns a replayable source over the shard's events matching
// the query ScanShards was given, with the same pushdown chain and
// residual filter as Scan. Errors are reported via *errp (first error
// wins, may be nil) and end the stream; if st is non-nil it is reset
// and filled while the source is consumed.
func (s Shard) Events(errp *error, st *ScanStats) stream.EventSource {
	return s.EventsContext(context.Background(), errp, st)
}

// EventsContext is Events with cancellation at block boundaries.
func (s Shard) EventsContext(ctx context.Context, errp *error, st *ScanStats) stream.EventSource {
	return func(yield func(classify.Event) bool) {
		if st != nil {
			*st = ScanStats{}
		}
		var br blockReader
		defer br.release()
		if _, err := scanEntriesBatch(ctx, s.entries, s.cq, &br, st, classify.ProjAll, rows(yield)); err != nil {
			if errp != nil && *errp == nil {
				*errp = err
			}
		}
	}
}

// ScanShards splits the store into per-collector shards for q.
// Concatenating the shards' sources in order reproduces Scan(dir, q)
// exactly; scanning them concurrently is safe because shards share no
// partition files and the compiled query is read-only.
func ScanShards(dir string, q Query) ([]Shard, error) {
	entries, err := listPartitions(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, noPartitionsError(dir)
	}
	cq := compileQuery(q)
	var shards []Shard
	for _, e := range entries {
		// entries are sorted by (collector, day, seq); unparsed names sort
		// under collector "" and coalesce into the catch-all shard.
		if n := len(shards); n > 0 && shards[n-1].Collector == e.collector {
			shards[n-1].entries = append(shards[n-1].entries, e)
			continue
		}
		shards = append(shards, Shard{Collector: e.collector, cq: cq, entries: []storeEntry{e}})
	}
	return shards, nil
}

// ShardStats is one shard's share of a parallel scan.
type ShardStats struct {
	Collector string
	Scan      ScanStats
	// Elapsed is the shard's wall-clock decode+classify+observe time on
	// its worker.
	Elapsed time.Duration
}

// ParallelStats describes a whole ScanParallel run.
type ParallelStats struct {
	Workers int
	// Shards reports per-shard pushdown and timing, in shard order.
	Shards []ShardStats
	// Total is the per-shard scan stats summed — equal to what a
	// sequential ScanWithStats of the same query reports.
	Total ScanStats
	// Merges counts shard-accumulator merges into the prototype
	// analyzers (shards × analyzers); MergeElapsed is the total time
	// spent merging under the lock.
	Merges       int
	MergeElapsed time.Duration
	Elapsed      time.Duration
}

// ScanParallel decodes, classifies, and analyzes the store's shards on
// a worker pool (runShards): each worker owns one blockReader (the
// decompressor, block buffers, and batch decode scratch are reused
// across every shard it drains) and runs a fresh classifier plus Fresh
// analyzer copies per shard; finished shards merge their accumulators
// into the analyzers the caller passed. Shards ride the vectorized
// batch kernel: residual predicates become selection vectors, and
// analyzers implementing classify.BatchAnalyzer consume columns while
// the rest receive materialized events. Events outside tally (zero =
// everything) still feed classifier state, the warm-up convention;
// q.Window instead excludes events from the scan entirely, so a
// windowed analysis that needs warm-up should scan unwindowed and pass
// the window here.
//
// Results are bit-identical to RunAll over Scan(dir, q) for every
// analyzer whose Merge is commutative (all of internal/analysis — a
// session never spans shards).
//
// Cancelling ctx makes workers stop at the next block boundary; the
// first error (ctx's) is returned and the analyzers hold partial
// state the caller must discard.
func ScanParallel(ctx context.Context, dir string, q Query, tally TimeRange, workers int, analyzers ...classify.Analyzer) (ParallelStats, error) {
	shards, err := ScanShards(dir, q)
	if err != nil {
		return ParallelStats{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	ps := ParallelStats{Workers: workers, Shards: make([]ShardStats, len(shards))}
	start := time.Now()
	merged, mergeElapsed, err := runShards(len(shards), workers, analyzers, func(idx int, br *blockReader, locals []classify.Analyzer) error {
		sh := shards[idx]
		ss := &ps.Shards[idx]
		ss.Collector = sh.Collector
		run := newBatchRunner(classify.New(), locals, tally)
		shardStart := time.Now()
		_, err := scanEntriesBatch(ctx, sh.entries, sh.cq, br, &ss.Scan, run.proj, func(b *classify.Batch, sel []int32) bool {
			run.observe(b, sel)
			return true
		})
		ss.Elapsed = time.Since(shardStart)
		return err
	})
	ps.Merges = merged * len(analyzers)
	ps.MergeElapsed = mergeElapsed
	for _, ss := range ps.Shards {
		ps.Total.Add(ss.Scan)
	}
	ps.Elapsed = time.Since(start)
	return ps, err
}

// runShards is the worker pool behind ScanParallel and
// SnapshotIndex.Query. It runs job for each of n shards on up to
// workers goroutines. Each worker owns one blockReader, reused across
// the jobs it drains and released when it exits — safe because every
// job's locals are resolved into protos under the merge lock before
// the worker takes its next job. Each job gets fresh analyzer copies
// (classify.FreshAll(protos)); a job that returns nil has them merged
// into protos under that one lock. The first error wins: the queue
// drains without running further jobs, and protos hold partial state
// the caller must discard. Callers record their own per-job stats
// inside job. runShards returns how many jobs merged and the time
// spent merging.
func runShards(n, workers int, protos []classify.Analyzer, job func(idx int, br *blockReader, locals []classify.Analyzer) error) (merged int, mergeElapsed time.Duration, err error) {
	workers = max(1, min(workers, n))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes merges, the merge tallies, and err
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var br blockReader
			defer br.release()
			for idx := range jobs {
				if failed.Load() {
					continue // an earlier job failed; drain the queue
				}
				locals := classify.FreshAll(protos)
				jobErr := job(idx, &br, locals)
				mu.Lock()
				if jobErr != nil {
					failed.Store(true)
					if err == nil {
						err = jobErr
					}
				} else {
					mergeStart := time.Now()
					classify.MergeAll(protos, locals)
					mergeElapsed += time.Since(mergeStart)
					merged++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return merged, mergeElapsed, err
}
