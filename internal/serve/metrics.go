package serve

import (
	"context"
	"time"

	"repro/internal/evstore"
	"repro/internal/obs"
)

// Metrics is the serving layer's observability surface. The hot path
// pays for exactly one histogram observation per answered query (plus
// per-compute counter adds on the singleflight LEADER only — followers
// and cache hits touch nothing but the latency histogram). Everything
// else samples the Server's existing counters at scrape time:
// queries/deduped/refreshes from the Server atomics, hit ratios from
// CacheStats, shard health from Backend.Health — the same numbers
// /v1/stats reports, so the two surfaces can never disagree.
//
// Construct with NewMetrics and pass via Config.Metrics; one Metrics
// instruments one Server.
type Metrics struct {
	reg *obs.Registry

	// latency observes wall time per answered query, labeled by
	// endpoint (query kind) and answer tier: "cached" (LRU hit),
	// "snapshot-merge" (pure sidecar merges, no events decoded),
	// "residual-scan" (merges plus edge-partition scans), "cold-scan"
	// (per-event filters forced a full windowed scan).
	latency *obs.HistogramVec
	// latencyChild pre-resolves every (endpoint, tier) series so the
	// per-answer cost is one comparable-key map read, not a label join
	// plus sync.Map round trip. Pre-materializing also keeps the
	// exposition's series set deterministic from the first scrape.
	latencyChild map[ktKey]*obs.Histogram
	errors       *obs.CounterVec
	// shardState observes per-backend State latency from answer
	// provenance — under a coordinator, the fan-out's per-shard cost;
	// single-node, the engine compute time.
	shardState *obs.HistogramVec
	partials   *obs.Counter

	// Residual/cold scan work, accumulated from the existing
	// evstore.ScanStats each leader compute returns.
	scanBlocks *obs.CounterVec // outcome: pruned|decoded|prefetched
	scanBytes  *obs.CounterVec // codec × direction: read|decompressed
	scanEvents *obs.Counter

	// Admission control (see Admission): shed requests by reason plus
	// the live in-flight gauge.
	rejected *obs.CounterVec
	inflight *obs.Gauge
	clients  *obs.Gauge

	ready      *obs.Gauge
	generation *obs.Gauge
	partitions *obs.Gauge
	shardUp    *obs.GaugeVec
}

type ktKey struct{ kind, tier string }

// queryKinds and answerTiers enumerate the latency label space.
var (
	queryKinds = []string{KindTable1, KindTable2, KindFigure2, KindFigure3,
		KindFigure4, KindFigure5, KindFigure6, KindPeers, KindIngress}
	answerTiers = []string{"cached", "snapshot-merge", "residual-scan", "cold-scan"}
)

// NewMetrics registers the serving metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := newMetrics(reg)
	m.latencyChild = make(map[ktKey]*obs.Histogram, len(queryKinds)*len(answerTiers))
	for _, k := range queryKinds {
		for _, t := range answerTiers {
			m.latencyChild[ktKey{k, t}] = m.latency.With(k, t)
		}
	}
	return m
}

func newMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg: reg,
		latency: reg.HistogramVec("comm_serve_query_latency_seconds",
			"Answer wall time by endpoint and answer tier (cached, snapshot-merge, residual-scan, cold-scan).",
			nil, "endpoint", "tier"),
		errors: reg.CounterVec("comm_serve_query_errors_total",
			"Failed queries by endpoint.", "endpoint"),
		shardState: reg.HistogramVec("comm_serve_shard_state_seconds",
			"Per-backend state time from answer provenance (fan-out cost under a coordinator).",
			nil, "backend"),
		partials: reg.Counter("comm_serve_partial_answers_total",
			"Answers served with one or more shards missing."),
		scanBlocks: reg.CounterVec("comm_serve_scan_blocks_total",
			"Residual/cold scan blocks by outcome (pruned, decoded, prefetched).", "outcome"),
		scanBytes: reg.CounterVec("comm_serve_scan_bytes_total",
			"Residual/cold scan payload bytes by block codec and direction (read=stored, decompressed=after codec).",
			"codec", "direction"),
		scanEvents: reg.Counter("comm_serve_scan_events_total",
			"Events decoded and classified by residual/cold scans."),
		rejected: reg.CounterVec("comm_serve_admission_rejected_total",
			"Requests shed by admission control, by reason (rate, inflight).", "reason"),
		inflight: reg.Gauge("comm_serve_inflight_requests",
			"Requests currently inside admission control."),
		clients: reg.Gauge("comm_serve_admission_clients",
			"Client token buckets currently tracked."),
		ready: reg.Gauge("comm_serve_ready",
			"1 when the daemon would answer 200 on /readyz."),
		generation: reg.Gauge("comm_serve_store_generation",
			"Engine store generation (fingerprint; compare for change, not order)."),
		partitions: reg.Gauge("comm_serve_store_partitions",
			"Partitions visible to the engine."),
		shardUp: reg.GaugeVec("comm_serve_shard_up",
			"Per-shard health under a coordinator (1 up, 0 down).", "backend"),
	}
}

// bind wires the sampled side to one server. Called by New.
func (m *Metrics) bind(s *Server) {
	m.reg.CounterFunc("comm_serve_queries_total",
		"Queries answered (all tiers).",
		func() uint64 { return s.queries.Load() })
	m.reg.CounterFunc("comm_serve_deduped_total",
		"Queries that piggybacked on another caller's in-flight compute.",
		func() uint64 { return s.deduped.Load() })
	m.reg.CounterFunc("comm_serve_refreshes_total",
		"Store refreshes that changed answers (cache drops).",
		func() uint64 { return s.refreshes.Load() })
	m.reg.CounterFunc("comm_serve_cache_hits_total",
		"Result cache hits (answers and state envelopes).",
		func() uint64 { return s.cache.stats().Hits })
	m.reg.CounterFunc("comm_serve_cache_misses_total",
		"Result cache misses (answers and state envelopes).",
		func() uint64 { return s.cache.stats().Misses })
	m.reg.CounterFunc("comm_serve_cache_evictions_total",
		"Result cache LRU evictions.",
		func() uint64 { return s.cache.stats().Evictions })
	m.reg.GaugeFunc("comm_serve_cache_entries",
		"Answers and state envelopes currently cached.",
		func() float64 { return float64(s.cache.stats().Entries) })
	m.reg.GaugeFunc("comm_serve_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })

	// Health is probed once per scrape with its own deadline, so a dead
	// shard delays the scrape by at most the probe timeout.
	m.reg.OnScrape(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		ready, _ := s.Ready(ctx)
		m.ready.Set(boolGauge(ready))
		h, err := s.engine.Health(ctx)
		if err != nil {
			m.partitions.Set(0)
			return
		}
		m.generation.Set(float64(h.Generation))
		m.partitions.Set(float64(h.Partitions))
		for _, sh := range h.Shards {
			m.shardUp.With(sh.Backend).Set(boolGauge(sh.OK))
		}
	})
}

// observeAnswer records one answered query (every tier, every caller).
func (m *Metrics) observeAnswer(spec QuerySpec, ans *Answer, elapsed time.Duration) {
	tier := tierOf(ans)
	h := m.latencyChild[ktKey{spec.Kind, tier}]
	if h == nil { // a kind outside the enumerated set
		h = m.latency.With(spec.Kind, tier)
	}
	h.Observe(elapsed.Seconds())
}

// observeCompute records a leader compute's provenance: the scan work
// its residual/cold scans did and the per-shard fan-out cost. Cache
// hits and singleflight followers share the leader's compute, so
// counting here keeps the counters equal to the work actually done.
func (m *Metrics) observeCompute(ans *Answer) {
	if ans.Partial {
		m.partials.Inc()
	}
	for _, p := range ans.Shards {
		if p.Err == "" {
			m.shardState.With(p.Backend).Observe(p.Elapsed.Seconds())
		}
	}
	sc := &ans.Scan
	m.scanBlocks.With("pruned").Add(uint64(sc.BlocksPruned))
	m.scanBlocks.With("decoded").Add(uint64(sc.BlocksDecoded))
	m.scanBlocks.With("prefetched").Add(uint64(sc.BlocksPrefetched))
	m.scanEvents.Add(uint64(sc.Events))
	for c := evstore.Codec(0); c < evstore.NumCodecs; c++ {
		pc := sc.PerCodec[c]
		if pc.Blocks == 0 {
			continue
		}
		m.scanBytes.With(c.String(), "read").Add(uint64(pc.BytesRead))
		m.scanBytes.With(c.String(), "decompressed").Add(uint64(pc.BytesDecompressed))
	}
}

// tierOf classifies an answer into its serving tier.
func tierOf(ans *Answer) string {
	switch {
	case ans.Source == "cache":
		return "cached"
	case ans.Source == "snapshots" && ans.Plan.Scanned == 0:
		return "snapshot-merge"
	case ans.Source == "snapshots":
		return "residual-scan"
	default:
		return "cold-scan"
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
