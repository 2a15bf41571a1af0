// Package serve is the query-serving layer over the columnar event
// store: a long-running daemon answers the paper's tables, figures,
// and §7 inferences as windowed queries, merging precomputed
// per-partition analyzer snapshots instead of rescanning the store.
//
// A Backend engine answers "merged analyzer STATE for this spec"
// (backend.go): LocalBackend executes the residual-scan planner over
// one store directory, RemoteBackend proxies to a shard daemon's
// /v1/state endpoint, and Coordinator fans out to N shards and merges
// their states under the Analyzer Merge laws — each collector's whole
// timeline lives on one shard (consistent hashing, the ScanShards
// invariant), so the merge is bit-identical to a single-node answer
// over the union store. Engines cache nothing. The Server frontend is
// engine-agnostic: it shapes state into the JSON Answer envelope and
// serves the same /v1 HTTP API whichever engine sits below. It owns
// the process's one cache tier: a generation-guarded LRU plus
// singleflight group holding shaped answers (GET /v1/...) and state
// envelopes (POST /v1/state, what a shard daemon serves its
// coordinator) under disjoint keys. Single-node (LocalBackend) remains
// the default.
//
// Query semantics are the live-collector convention: classification
// state is warm from each collector's full stored timeline, and the
// window selects which classified events are tallied. Every answer is
// bit-identical to a cold ScanParallel of the same window — pinned by
// equivalence tests across synthetic, MRT-archive, store, and
// simulator-fleet producers, and by a cluster equivalence test across
// random shard partitions.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/beacon"
	"repro/internal/classify"
	"repro/internal/evstore"
)

// Query kinds — the analyses the daemon serves.
const (
	KindTable1  = "table1"
	KindTable2  = "table2"
	KindFigure2 = "figure2"
	KindFigure3 = "figure3"
	KindFigure4 = "figure4"
	KindFigure5 = "figure5"
	KindFigure6 = "figure6"
	KindPeers   = "peers"
	KindIngress = "ingress"
)

// QuerySpec is one serving request, the union of every kind's
// parameters. Zero-valued dimensions do not constrain.
type QuerySpec struct {
	Kind string

	// Window tallies events in [From, To); zero bounds are unbounded.
	Window evstore.TimeRange
	// Collectors restricts to the named collectors.
	Collectors []string
	// PeerAS / PrefixRange are per-event filters; queries using them
	// bypass snapshots and run as cold scans.
	PeerAS      []uint32
	PrefixRange netip.Prefix

	// FromYear/ToYear bound the figure2 series (calendar-year windows).
	FromYear, ToYear int

	// Collector+Prefix parameterize figure3; PeerAddr+Path additionally
	// parameterize figure4/5 (the route).
	Collector string
	Prefix    netip.Prefix
	PeerAddr  netip.Addr
	Path      string
}

// CacheKey canonicalizes the spec into the result-cache key. Free-form
// string fields (collector names, AS-path text) are %q-quoted so a
// value containing the key's own delimiters can never collide with a
// differently-shaped spec.
func (q QuerySpec) CacheKey() string {
	var b strings.Builder
	b.WriteString(q.Kind)
	fmt.Fprintf(&b, "|w=%d,%d", q.Window.From.UnixNano(), q.Window.To.UnixNano())
	if len(q.Collectors) > 0 {
		cs := append([]string(nil), q.Collectors...)
		sort.Strings(cs)
		b.WriteString("|c=")
		for i, c := range cs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(c))
		}
	}
	if len(q.PeerAS) > 0 {
		as := append([]uint32(nil), q.PeerAS...)
		sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		fmt.Fprintf(&b, "|p=%v", as)
	}
	if q.PrefixRange.IsValid() {
		fmt.Fprintf(&b, "|r=%s", q.PrefixRange)
	}
	if q.FromYear != 0 || q.ToYear != 0 {
		fmt.Fprintf(&b, "|y=%d-%d", q.FromYear, q.ToYear)
	}
	if q.Collector != "" {
		fmt.Fprintf(&b, "|col=%s", strconv.Quote(q.Collector))
	}
	if q.Prefix.IsValid() {
		fmt.Fprintf(&b, "|pfx=%s", q.Prefix)
	}
	if q.PeerAddr.IsValid() {
		fmt.Fprintf(&b, "|peer=%s", q.PeerAddr)
	}
	if q.Path != "" {
		fmt.Fprintf(&b, "|path=%s", strconv.Quote(q.Path))
	}
	return b.String()
}

// Answer is one served result with its provenance: where it came from
// (cache, snapshot merges, residual/cold scan), what it cost, and —
// under a coordinator — which shards contributed.
type Answer struct {
	Kind   string `json:"kind"`
	Source string `json:"source"` // "snapshots", "scan", or "cache"
	// Partial marks an answer missing one or more shards' events; the
	// Shards provenance names the failures. Partial answers are never
	// cached.
	Partial bool `json:"partial,omitempty"`
	// Elapsed is the compute time (for cache hits: the ORIGINAL
	// compute time, not the lookup).
	Elapsed time.Duration     `json:"elapsed_ns"`
	Plan    evstore.PlanStats `json:"plan"`
	Scan    evstore.ScanStats `json:"scan"`
	Merges  int               `json:"merges"`
	// Shards is the per-backend provenance: one entry in single-node
	// mode, one per shard under a coordinator.
	Shards []ShardProvenance `json:"shards,omitempty"`
	Data   any               `json:"data"`

	// generation is the engine generation the answer was computed at
	// (for the staleness guard; not part of the payload).
	generation uint64
}

// Config parameterizes a Server.
type Config struct {
	// Dir is the store directory (single-node / shard mode).
	Dir string
	// Workers bounds per-query scan parallelism (0 = GOMAXPROCS).
	Workers int
	// CacheEntries sizes the Server's one LRU, shared by answers and
	// state envelopes (0 = 256).
	CacheEntries int
	// Registry is the snapshot-indexed analyzer set (nil = DefaultRegistry).
	Registry []evstore.NamedAnalyzer
	// Backend overrides the engine. nil builds a LocalBackend over Dir;
	// pass a Coordinator to serve scatter-gather.
	Backend Backend
	// Metrics, when non-nil, instruments the server (latency by
	// endpoint×tier, scan work, shard health) and enables GET /metrics.
	// One Metrics instruments one Server.
	Metrics *Metrics
	// Logger receives structured request/refresh records (nil: no
	// request logging). Per-query records log at Debug.
	Logger *slog.Logger
}

// DefaultRegistry returns the analyzer set a daemon snapshots by
// default: the configuration-free analyses plus the paper's figure 3
// default route (rrc00 observing the first RIS beacon prefix). Keys
// embed configuration so differently-parameterized analyzers never
// share sidecar states.
func DefaultRegistry() []evstore.NamedAnalyzer {
	return []evstore.NamedAnalyzer{
		{Key: "table1", Proto: analysis.NewTable1()},
		{Key: "counts", Proto: analysis.NewCounts()},
		{Key: "peers", Proto: analysis.NewPeerBehavior()},
		{Key: "ingress", Proto: analysis.NewIngress()},
		{Key: "revealed:ripe", Proto: analysis.NewRevealed(beacon.RIPE)},
		{Key: sessionMixKey("rrc00", beacon.PrefixN(0)), Proto: analysis.NewSessionMix("rrc00", beacon.PrefixN(0))},
	}
}

func sessionMixKey(collector string, prefix netip.Prefix) string {
	return fmt.Sprintf("sessionmix:%s:%s", collector, prefix)
}

// Server shapes Backend state into served answers and caches both the
// answers and the state envelopes it serves. Safe for concurrent use;
// Refresh may run concurrently with queries.
type Server struct {
	cfg     Config
	engine  Backend
	cache   *resultCache
	flight  *flightGroup
	metrics *Metrics
	logger  *slog.Logger

	// lastGen is the last engine generation observed in an envelope; a
	// drift detected mid-compute (a shard refreshed underneath a
	// coordinator) clears the cache, so stale merged values cannot
	// outlive the observation that the store moved.
	lastGen atomic.Uint64

	started   time.Time
	queries   atomic.Uint64
	deduped   atomic.Uint64
	refreshes atomic.Uint64
}

// New returns a ready server over cfg's engine: the configured Backend
// if set, else a LocalBackend over cfg.Dir (building any missing
// snapshot sidecars for the registry).
func New(ctx context.Context, cfg Config) (*Server, RefreshStats, error) {
	engine := cfg.Backend
	var rs RefreshStats
	if engine == nil {
		lb, lrs, err := NewLocalBackend(ctx, cfg)
		if err != nil {
			return nil, lrs, err
		}
		engine, rs = lb, lrs
	} else {
		var err error
		if rs, err = engine.Refresh(ctx); err != nil {
			return nil, rs, err
		}
	}
	s := &Server{
		cfg:     cfg,
		engine:  engine,
		cache:   newResultCache(cfg.CacheEntries),
		flight:  newFlightGroup(),
		metrics: cfg.Metrics,
		logger:  cfg.Logger,
		started: time.Now(),
	}
	s.lastGen.Store(rs.Generation)
	if s.metrics != nil {
		s.metrics.bind(s)
	}
	return s, rs, nil
}

// Backend returns the serving engine.
func (s *Server) Backend() Backend { return s.engine }

// Refresh re-checks the engine's store(s) for newly sealed partitions
// and drops the cache when answers may have changed.
func (s *Server) Refresh(ctx context.Context) (RefreshStats, error) {
	rs, err := s.engine.Refresh(ctx)
	if err == nil {
		s.invalidate(rs)
	}
	return rs, err
}

// Watch follows the engine's store(s) and refreshes whenever live
// ingest seals new partitions (or a shard's generation drifts).
// Blocks until ctx is cancelled; run on its own goroutine. onRefresh
// (optional) observes each refresh.
func (s *Server) Watch(ctx context.Context, interval time.Duration, onRefresh func(RefreshStats, error)) error {
	return s.engine.Watch(ctx, interval, func(rs RefreshStats, err error) {
		if err == nil {
			s.invalidate(rs)
		}
		if onRefresh != nil {
			onRefresh(rs, err)
		}
	})
}

// invalidate applies one successful engine refresh: when answers may
// have changed it drops the cache, records the new generation, and
// counts the refresh. A refresh that changed nothing is not counted.
func (s *Server) invalidate(rs RefreshStats) {
	if !rs.Changed {
		return
	}
	s.cache.clear()
	if rs.Generation != 0 {
		s.lastGen.Store(rs.Generation)
	}
	s.refreshes.Add(1)
}

// Answer serves one query through the cache and singleflight group.
func (s *Server) Answer(ctx context.Context, spec QuerySpec) (*Answer, error) {
	start := time.Now()
	ans, err := s.answer(ctx, spec)
	if s.metrics != nil {
		if err != nil {
			s.metrics.errors.With(spec.Kind).Inc()
		} else {
			s.metrics.observeAnswer(spec, ans, time.Since(start))
		}
	}
	return ans, err
}

func (s *Server) answer(ctx context.Context, spec QuerySpec) (*Answer, error) {
	s.queries.Add(1)
	v, hit, err := s.cached(ctx, spec.CacheKey(), func(ctx context.Context) (any, uint64, bool, error) {
		ans, err := s.compute(ctx, spec)
		if err != nil {
			return nil, 0, false, err
		}
		if s.metrics != nil {
			// Leader-only: followers and cache hits share this compute's
			// scan work, so the counters track work actually done.
			s.metrics.observeCompute(ans)
		}
		return ans, ans.generation, ans.Partial, nil
	})
	if err != nil {
		return nil, err
	}
	ans := v.(*Answer)
	if hit {
		cp := *ans
		cp.Source = "cache"
		return &cp, nil
	}
	return ans, nil
}

// cached is the one cache path for both value kinds: an LRU hit, else
// one singleflight compute shared by every concurrent caller of key.
// compute returns the value, the engine generation it was computed at,
// and whether it is partial. The value is cached unless it is partial
// or the cache was cleared while it was computed (a refresh, or the
// generation drift this very value revealed): such a value is returned
// to its callers but never pinned into the cache.
func (s *Server) cached(ctx context.Context, key string, compute func(context.Context) (any, uint64, bool, error)) (val any, hit bool, err error) {
	if v, ok := s.cache.get(key); ok {
		return v, true, nil
	}
	run := func() (any, error) {
		// The clear-generation is read before computing, so a clear
		// mid-compute drops this put.
		cg := s.cache.generation()
		v, gen, partial, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		s.observeGeneration(gen)
		if !partial {
			s.cache.put(key, v, cg)
		}
		return v, nil
	}
	val, shared, err := s.flight.do(key, run)
	if shared {
		s.deduped.Add(1)
		// A shared compute ran under the LEADER's request context: if
		// the leader's client vanished mid-scan, that cancellation is
		// not this caller's, so recompute under its own context.
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			val, err = run()
		}
	}
	return val, false, err
}

// Ready reports whether the daemon should accept query traffic, and if
// not, why. Distinct from liveness (/healthz): a starting daemon is
// alive but not ready until its engine has a refreshed store view —
// single-node, the store opened and the first snapshot pass completed
// (both done before New returns); under a coordinator, at least one
// shard answering health probes. A fully-partitioned coordinator stays
// ready in degraded (partial-answer) form as long as one shard stands.
func (s *Server) Ready(ctx context.Context) (bool, string) {
	h, err := s.engine.Health(ctx)
	if err != nil {
		return false, err.Error()
	}
	if len(h.Shards) > 0 {
		up := 0
		for _, sh := range h.Shards {
			if sh.OK {
				up++
			}
		}
		if up == 0 {
			return false, "no healthy shards"
		}
		return true, ""
	}
	if !h.OK {
		return false, "engine unhealthy"
	}
	return true, ""
}

// observeGeneration notes the engine generation a value was computed
// at. A change relative to the last observation means the store moved
// without a Refresh/Watch having run here first (a shard refreshed
// between coordinator watch ticks), so previously cached values may be
// stale: drop them all. The clear also drops the put of the value that
// revealed the drift; the next compute of its key caches normally.
func (s *Server) observeGeneration(gen uint64) {
	if gen == 0 {
		return
	}
	prev := s.lastGen.Swap(gen)
	if prev != 0 && prev != gen {
		s.cache.clear()
	}
}

// compute answers one query uncached: figure2 decomposes into per-year
// state queries, every other kind is one engine State call shaped into
// its JSON form.
func (s *Server) compute(ctx context.Context, spec QuerySpec) (*Answer, error) {
	if spec.Kind == KindFigure2 {
		return s.figure2(ctx, spec)
	}
	start := time.Now()
	named, err := stateAnalyzers(spec)
	if err != nil {
		return nil, err
	}
	env, err := s.engine.State(ctx, spec)
	if err != nil {
		return nil, err
	}
	if err := restoreStates(named, env); err != nil {
		return nil, err
	}
	ans := &Answer{
		Kind:       spec.Kind,
		Source:     env.Source,
		Partial:    env.Partial(),
		Plan:       env.Plan,
		Scan:       env.Scan,
		Merges:     env.Merges,
		Shards:     env.Shards,
		generation: env.Generation,
	}
	if ans.Data, err = shapeData(spec, named[0].Proto); err != nil {
		return nil, err
	}
	ans.Elapsed = time.Since(start)
	return ans, nil
}

// shapeData renders the primary analyzer's finished result into the
// kind's JSON shape.
func shapeData(spec QuerySpec, a classify.Analyzer) (any, error) {
	switch spec.Kind {
	case KindTable1:
		return a.(*analysis.Table1Analyzer).Table1(), nil
	case KindTable2:
		return countsData(a.(*classify.CountsAnalyzer).Counts), nil
	case KindFigure3:
		return a.(*analysis.SessionMixAnalyzer).Mixes(), nil
	case KindFigure4, KindFigure5:
		return cumData(a.(*analysis.CumulativeAnalyzer).Series()), nil
	case KindFigure6:
		return a.(*analysis.RevealedAnalyzer).Summary(), nil
	case KindPeers:
		return peersData(a.(*analysis.PeerBehaviorAnalyzer).Inferences()), nil
	case KindIngress:
		return a.(*analysis.IngressAnalyzer).Locations(), nil
	default:
		return nil, fmt.Errorf("serve: unknown query kind %q", spec.Kind)
	}
}

// figure2 answers the longitudinal series: one Table-2 counts row per
// calendar year, each an independent windowed state query so pushdown
// and snapshot merges prune everything outside that year (and, under a
// coordinator, each year scatter-gathers independently).
func (s *Server) figure2(ctx context.Context, spec QuerySpec) (*Answer, error) {
	if spec.FromYear == 0 || spec.ToYear < spec.FromYear {
		return nil, fmt.Errorf("serve: figure2 needs fromyear <= toyear")
	}
	if spec.ToYear-spec.FromYear > 200 {
		return nil, fmt.Errorf("serve: figure2 year range too large")
	}
	start := time.Now()
	total := &Answer{Kind: spec.Kind, Source: "snapshots"}
	var rows []Figure2Row
	for y := spec.FromYear; y <= spec.ToYear; y++ {
		sub := QuerySpec{
			Kind:       KindTable2,
			Collectors: spec.Collectors,
			Window: evstore.TimeRange{
				From: time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC),
				To:   time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC),
			},
		}
		named, err := stateAnalyzers(sub)
		if err != nil {
			return nil, err
		}
		env, err := s.engine.State(ctx, sub)
		if err != nil {
			return nil, err
		}
		if err := restoreStates(named, env); err != nil {
			return nil, err
		}
		a := named[0].Proto.(*classify.CountsAnalyzer)
		total.Plan.Shards = max(total.Plan.Shards, env.Plan.Shards)
		total.Plan.Partitions += env.Plan.Partitions
		total.Plan.Merged += env.Plan.Merged
		total.Plan.Jumped += env.Plan.Jumped
		total.Plan.Scanned += env.Plan.Scanned
		total.Plan.Skipped += env.Plan.Skipped
		total.Scan.Add(env.Scan)
		total.Merges += env.Merges
		total.Partial = total.Partial || env.Partial()
		total.Shards = mergeProvenance(total.Shards, env.Shards)
		total.generation = env.Generation
		if env.Source == "scan" {
			total.Source = "scan"
		}
		rows = append(rows, Figure2Row{Year: y, Total: a.Counts.Announcements(), Counts: countsData(a.Counts)})
	}
	total.Data = rows
	total.Elapsed = time.Since(start)
	return total, nil
}

// mergeProvenance folds one sub-query's shard provenance into an
// aggregate (per-backend, first-seen order): elapsed sums, the latest
// generation and source win, and an error from any sub-query sticks —
// the aggregate names every shard that failed to contribute anywhere.
func mergeProvenance(agg, add []ShardProvenance) []ShardProvenance {
	for _, p := range add {
		found := false
		for i := range agg {
			if agg[i].Backend != p.Backend {
				continue
			}
			found = true
			agg[i].Elapsed += p.Elapsed
			if p.Generation != 0 {
				agg[i].Generation = p.Generation
			}
			if p.Source != "" {
				agg[i].Source = p.Source
			}
			if p.Err != "" {
				agg[i].Err = p.Err
			}
			break
		}
		if !found {
			agg = append(agg, p)
		}
	}
	return agg
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	Store       string     `json:"store,omitempty"`
	Backend     string     `json:"backend"`
	Generation  uint64     `json:"generation"`
	Ready       bool       `json:"ready"`
	ReadyReason string     `json:"ready_reason,omitempty"`
	UptimeSec   float64    `json:"uptime_sec"`
	Partitions  int        `json:"partitions"`
	Snapshotted int        `json:"snapshotted"`
	Registry    []string   `json:"registry,omitempty"`
	Queries     uint64     `json:"queries"`
	Deduped     uint64     `json:"deduped"`
	Refreshes   uint64     `json:"refreshes"`
	Cache       CacheStats `json:"cache"`
	// Shards reports per-shard health under a coordinator.
	Shards []BackendHealth `json:"shards,omitempty"`
}

// Stats reports the daemon's operational state.
func (s *Server) Stats(ctx context.Context) ServerStats {
	st := ServerStats{
		Store:     s.cfg.Dir,
		Backend:   s.engine.Name(),
		UptimeSec: time.Since(s.started).Seconds(),
		Queries:   s.queries.Load(),
		Deduped:   s.deduped.Load(),
		Refreshes: s.refreshes.Load(),
		Cache:     s.cache.stats(),
	}
	st.Ready, st.ReadyReason = s.Ready(ctx)
	if h, err := s.engine.Health(ctx); err == nil {
		st.Generation = h.Generation
		st.Partitions = h.Partitions
		st.Snapshotted = h.Snapshotted
		st.Shards = h.Shards
	}
	if lb, ok := s.engine.(*LocalBackend); ok {
		st.Registry = lb.Registry()
	}
	return st
}

// ---------------------------------------------------------------------------
// JSON data shapes
// ---------------------------------------------------------------------------

// CountsData renders classify.Counts with per-type labels and shares.
type CountsData struct {
	Announcements int                `json:"announcements"`
	Withdrawals   int                `json:"withdrawals"`
	ByType        map[string]int     `json:"by_type"`
	Shares        map[string]float64 `json:"shares"`
	NoPathChange  float64            `json:"no_path_change_share"`
	MEDOnlyNN     int                `json:"med_only_nn"`
}

func countsData(c classify.Counts) CountsData {
	d := CountsData{
		Announcements: c.Announcements(),
		Withdrawals:   c.Withdrawals,
		ByType:        make(map[string]int, 6),
		Shares:        make(map[string]float64, 6),
		NoPathChange:  c.NoPathChangeShare(),
		MEDOnlyNN:     c.MEDOnlyNN,
	}
	for _, ty := range classify.Types() {
		d.ByType[ty.String()] = c.Of(ty)
		d.Shares[ty.String()] = c.Share(ty)
	}
	return d
}

// Figure2Row is one year of the served longitudinal series.
type Figure2Row struct {
	Year   int        `json:"year"`
	Total  int        `json:"total"`
	Counts CountsData `json:"counts"`
}

// CumSeriesData is the figure 4/5 payload.
type CumSeriesData struct {
	Points      []CumPointData `json:"points"`
	Withdrawals []time.Time    `json:"withdrawals"`
	Counts      CountsData     `json:"counts"`
}

// CumPointData is one classified announcement on the route.
type CumPointData struct {
	Time time.Time `json:"time"`
	Type string    `json:"type"`
}

func cumData(series analysis.CumSeries) CumSeriesData {
	d := CumSeriesData{Withdrawals: series.Withdrawals, Counts: countsData(series.TypeCounts())}
	for _, p := range series.Points {
		d.Points = append(d.Points, CumPointData{Time: p.Time, Type: p.Type.String()})
	}
	return d
}

// PeersData is the §7 inference payload: the per-session verdicts and
// the behaviour histogram.
type PeersData struct {
	Sessions []PeerRow      `json:"sessions"`
	Summary  map[string]int `json:"summary"`
}

// PeerRow is one session's verdict.
type PeerRow struct {
	Collector string  `json:"collector"`
	PeerAddr  string  `json:"peer_addr"`
	PeerAS    uint32  `json:"peer_as"`
	Announce  int     `json:"announcements"`
	CommShare float64 `json:"comm_share"`
	NCShare   float64 `json:"nc_share"`
	NNShare   float64 `json:"nn_share"`
	Behavior  string  `json:"behavior"`
}

func peersData(infs []analysis.PeerInference) PeersData {
	d := PeersData{Summary: make(map[string]int, 3)}
	for _, inf := range infs {
		d.Sessions = append(d.Sessions, PeerRow{
			Collector: inf.Session.Collector,
			PeerAddr:  inf.Session.PeerAddr.String(),
			PeerAS:    inf.PeerAS,
			Announce:  inf.Announcements,
			CommShare: inf.CommShare,
			NCShare:   inf.NCShare,
			NNShare:   inf.NNShare,
			Behavior:  inf.Behavior.String(),
		})
		d.Summary[inf.Behavior.String()]++
	}
	return d
}
