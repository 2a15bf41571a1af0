package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
)

// LocalBackend answers state queries over one store directory: the
// residual-scan planner for snapshot-covered windows, a cold parallel
// scan when per-event filters force one. It is a pure engine and
// caches nothing: the Server above it owns the process's only result
// cache and singleflight group, for shaped answers and for the state
// envelopes a shard daemon serves on POST /v1/state alike.
type LocalBackend struct {
	cfg Config
	ix  *evstore.SnapshotIndex
}

// NewLocalBackend opens the store's snapshot index (building any
// missing sidecars for the registry) and returns the backend.
func NewLocalBackend(ctx context.Context, cfg Config) (*LocalBackend, RefreshStats, error) {
	if cfg.Registry == nil {
		cfg.Registry = DefaultRegistry()
	}
	ix, bs, err := evstore.OpenSnapshotIndex(ctx, cfg.Dir, cfg.Registry)
	rs := RefreshStats{SnapshotBuildStats: bs, Changed: true}
	if err != nil {
		return nil, rs, err
	}
	lb := &LocalBackend{cfg: cfg, ix: ix}
	rs.Generation = lb.generation()
	return lb, rs, nil
}

// Name identifies the backend in provenance. Deliberately not the
// store path: single-node answers should not leak filesystem layout
// into the public API.
func (lb *LocalBackend) Name() string { return "local" }

// Registry returns the snapshot-indexed analyzer keys.
func (lb *LocalBackend) Registry() []string {
	keys := make([]string, 0, len(lb.cfg.Registry))
	for _, na := range lb.cfg.Registry {
		keys = append(keys, na.Key)
	}
	return keys
}

func (lb *LocalBackend) generation() uint64 {
	return lb.ix.Manifest().Fingerprint()
}

// State runs the planned (or cold, for per-event filters) query into
// fresh analyzers and snapshots them into an envelope.
func (lb *LocalBackend) State(ctx context.Context, spec QuerySpec) (*StateEnvelope, error) {
	named, err := stateAnalyzers(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	env := &StateEnvelope{Backend: lb.Name()}
	if len(spec.PeerAS) > 0 || spec.PrefixRange.IsValid() {
		protos := make([]classify.Analyzer, len(named))
		for i, na := range named {
			protos[i] = na.Proto
		}
		q := evstore.Query{Collectors: spec.Collectors, PeerAS: spec.PeerAS, PrefixRange: spec.PrefixRange}
		ps, err := evstore.ScanParallel(ctx, lb.cfg.Dir, q, spec.Window, lb.cfg.Workers, protos...)
		if err != nil {
			return nil, mapEmptyStore(err)
		}
		env.Source = "scan"
		env.Scan = ps.Total
	} else {
		q := evstore.Query{Window: spec.Window, Collectors: spec.Collectors}
		ss, err := lb.ix.Query(ctx, q, lb.cfg.Workers, named...)
		if err != nil {
			return nil, mapEmptyStore(err)
		}
		env.Plan = ss.Plan
		env.Scan = ss.Scan
		env.Merges = ss.Merges
		if ss.Plan.Merged > 0 || ss.Plan.Jumped > 0 {
			env.Source = "snapshots"
		} else {
			env.Source = "scan"
		}
	}
	env.Generation = lb.generation()
	env.Keys = make([]string, len(named))
	env.States = make([][]byte, len(named))
	for i, na := range named {
		env.Keys[i] = na.Key
		env.States[i] = na.Proto.Snapshot(nil)
	}
	env.Elapsed = time.Since(start)
	env.Shards = []ShardProvenance{{
		Backend:    lb.Name(),
		Generation: env.Generation,
		Source:     env.Source,
		Elapsed:    env.Elapsed,
	}}
	return env, nil
}

// mapEmptyStore folds evstore's empty-store error into the serving
// tier's sentinel so coordinators and HTTP handlers can match it.
func mapEmptyStore(err error) error {
	if errors.Is(err, evstore.ErrNoPartitions) {
		return fmt.Errorf("%w (%s)", ErrEmptyStore, err)
	}
	return err
}

// Refresh incrementally snapshots newly sealed partitions and reports
// whether the store changed.
func (lb *LocalBackend) Refresh(ctx context.Context) (RefreshStats, error) {
	before := lb.generation()
	bs, err := lb.ix.Refresh(ctx)
	rs := RefreshStats{SnapshotBuildStats: bs}
	if err != nil {
		return rs, err
	}
	rs.Generation = lb.generation()
	rs.Changed = rs.Generation != before || bs.Built > 0
	return rs, nil
}

// Watch follows the store manifest and refreshes whenever live ingest
// seals new partitions.
func (lb *LocalBackend) Watch(ctx context.Context, interval time.Duration, onChange func(RefreshStats, error)) error {
	return evstore.Watch(ctx, lb.ix.Manifest(), interval, func(evstore.Manifest, []evstore.PartitionRef) {
		rs, err := lb.Refresh(ctx)
		if onChange != nil {
			onChange(rs, err)
		}
	})
}

// Health reports store coverage and the current generation.
func (lb *LocalBackend) Health(ctx context.Context) (BackendHealth, error) {
	parts, snapped := lb.ix.Coverage()
	return BackendHealth{
		Backend:     lb.Name(),
		OK:          true,
		Generation:  lb.generation(),
		Partitions:  parts,
		Snapshotted: snapped,
	}, nil
}
