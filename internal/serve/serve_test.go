package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/collector"
	"repro/internal/evstore"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/workload"
)

var testDay = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func smallCfg() workload.DayConfig {
	cfg := workload.DefaultDayConfig(testDay)
	cfg.Collectors = 2
	cfg.PeersPerCollector = 3
	cfg.PrefixesV4 = 30
	cfg.PrefixesV6 = 6
	return cfg
}

// buildStore ingests src into a fresh store with small blocks.
func buildStore(t testing.TB, src stream.EventSource) string {
	t.Helper()
	dir := t.TempDir()
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockEvents = 512
	if err := w.Ingest(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// coldRef runs the reference batch computation for a spec: a cold
// shard-parallel scan of the full collector timelines (with any
// per-event filters) tallying the spec's window.
func coldRef(t testing.TB, dir string, spec serve.QuerySpec, protos ...classify.Analyzer) {
	t.Helper()
	q := evstore.Query{Collectors: spec.Collectors, PeerAS: spec.PeerAS, PrefixRange: spec.PrefixRange}
	_, err := evstore.ScanParallel(context.Background(), dir, q, spec.Window, 2, protos...)
	if err != nil {
		t.Fatal(err)
	}
}

// storeProducers builds equivalent stores through every producer path
// — synthetic day sources, MRT archives through the §4 normalizer, a
// multi-day store ingest, and the simulator fleet. Both the
// single-node and the scatter-gather equivalence suites sweep it.
var storeProducers = []struct {
	name  string
	build func(t *testing.T) string
}{
	{"synthetic", func(t *testing.T) string {
		_, sources := workload.DaySources(smallCfg())
		return buildStore(t, stream.Concat(sources...))
	}},
	{"mrt", func(t *testing.T) string {
		cfg := smallCfg()
		peers, sources := workload.DaySources(cfg)
		arch := t.TempDir()
		if _, err := collector.WriteSourcesDir(peers, sources, arch); err != nil {
			t.Fatal(err)
		}
		src, _, check, err := pipeline.ArchiveSource(arch, nil)
		if err != nil {
			t.Fatal(err)
		}
		dir := buildStore(t, src)
		if err := check(); err != nil {
			t.Fatal(err)
		}
		return dir
	}},
	{"store-multiday", func(t *testing.T) string {
		return buildStore(t, workload.MultiDaySource(smallCfg(), 2))
	}},
	{"simsweep", func(t *testing.T) string {
		results := simnet.Sweep(simnet.DefaultMatrix(testDay, 6), 2)
		dir := t.TempDir()
		w, err := evstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if err := w.Ingest(r.Capture.Source()); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}},
}

// TestServeEquivalenceAcrossProducers is the tentpole acceptance: on
// stores built from every producer path, every served kind must be
// bit-identical to the cold batch scan of the same window.
func TestServeEquivalenceAcrossProducers(t *testing.T) {
	window := evstore.TimeRange{From: testDay.Add(2 * time.Hour), To: testDay.Add(20 * time.Hour)}
	for _, p := range storeProducers {
		t.Run(p.name, func(t *testing.T) {
			dir := p.build(t)
			s, bs, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if bs.Built == 0 {
				t.Fatal("server built no snapshots")
			}

			// table1
			spec := serve.QuerySpec{Kind: serve.KindTable1, Window: window}
			ans, err := s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			refT1 := analysis.NewTable1()
			coldRef(t, dir, spec, refT1)
			if !reflect.DeepEqual(ans.Data, refT1.Table1()) {
				t.Errorf("table1 diverged:\n got %+v\nwant %+v", ans.Data, refT1.Table1())
			}

			// table2 — windowed (residual scans where the window cuts
			// partitions) and unbounded (pure snapshot merges).
			for _, w := range []evstore.TimeRange{window, {}} {
				spec := serve.QuerySpec{Kind: serve.KindTable2, Window: w}
				ans, err := s.Answer(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				refC := analysis.NewCounts()
				coldRef(t, dir, spec, refC)
				if got := ans.Data.(serve.CountsData); got.Announcements != refC.Counts.Announcements() ||
					!reflect.DeepEqual(got.ByType, countsByType(refC.Counts)) ||
					got.Withdrawals != refC.Counts.Withdrawals {
					t.Errorf("table2 window %+v diverged:\n got %+v\nwant %+v", w, got, refC.Counts)
				}
				if w == (evstore.TimeRange{}) {
					// Unbounded: every partition is fully inside the window,
					// so the answer must come entirely from snapshot merges.
					if ans.Source != "snapshots" || ans.Plan.Scanned != 0 || ans.Plan.Merged == 0 {
						t.Errorf("unbounded table2 source %q plan %+v, want pure snapshot merges", ans.Source, ans.Plan)
					}
				}
			}

			// peers (§7)
			spec = serve.QuerySpec{Kind: serve.KindPeers, Window: window}
			ans, err = s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			refP := analysis.NewPeerBehavior()
			coldRef(t, dir, spec, refP)
			wantPeers := refP.Inferences()
			gotPeers := ans.Data.(serve.PeersData)
			if len(gotPeers.Sessions) != len(wantPeers) {
				t.Fatalf("peers: %d sessions, want %d", len(gotPeers.Sessions), len(wantPeers))
			}
			for i, inf := range wantPeers {
				row := gotPeers.Sessions[i]
				if row.Collector != inf.Session.Collector || row.PeerAddr != inf.Session.PeerAddr.String() ||
					row.Behavior != inf.Behavior.String() || row.Announce != inf.Announcements {
					t.Errorf("peers row %d diverged: %+v vs %+v", i, row, inf)
				}
			}

			// ingress
			spec = serve.QuerySpec{Kind: serve.KindIngress, Window: window}
			ans, err = s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			refI := analysis.NewIngress()
			coldRef(t, dir, spec, refI)
			if !reflect.DeepEqual(ans.Data, refI.Locations()) {
				t.Error("ingress diverged")
			}

			// figure6
			spec = serve.QuerySpec{Kind: serve.KindFigure6, Window: window}
			ans, err = s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			refR := serve.DefaultRegistry()[4].Proto.Fresh()
			coldRef(t, dir, spec, refR)
			if !reflect.DeepEqual(ans.Data, refR.Finish()) {
				t.Error("figure6 diverged")
			}

			// per-event filter fallback: a PeerAS query runs as a cold scan
			// but must still match the reference.
			spec = serve.QuerySpec{Kind: serve.KindTable2, Window: window, PeerAS: firstPeerAS(t, dir)}
			ans, err = s.Answer(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Source != "scan" {
				t.Errorf("peeras query source %q, want scan", ans.Source)
			}
			refF := analysis.NewCounts()
			coldRef(t, dir, spec, refF)
			if got := ans.Data.(serve.CountsData); got.Announcements != refF.Counts.Announcements() {
				t.Errorf("peeras fallback diverged: %d != %d", got.Announcements, refF.Counts.Announcements())
			}
		})
	}
}

func countsByType(c classify.Counts) map[string]int {
	m := make(map[string]int, 6)
	for _, ty := range classify.Types() {
		m[ty.String()] = c.Of(ty)
	}
	return m
}

// firstPeerAS returns one peer AS present in the store.
func firstPeerAS(t testing.TB, dir string) []uint32 {
	t.Helper()
	infos, err := evstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if len(info.PeerAS) > 0 {
			return info.PeerAS[:1]
		}
	}
	t.Fatal("no peer AS in store")
	return nil
}

// TestServeCacheAndSingleflight pins the serving fast paths: a repeat
// query is served from cache; concurrent identical queries collapse to
// one computation; a refresh after new data drops the cache.
func TestServeCacheAndSingleflight(t *testing.T) {
	cfg := smallCfg()
	_, sources := workload.DaySources(cfg)
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.QuerySpec{Kind: serve.KindTable2,
		Window: evstore.TimeRange{From: testDay, To: testDay.Add(24 * time.Hour)}}

	first, err := s.Answer(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source == "cache" {
		t.Fatal("first answer claims cache")
	}
	second, err := s.Answer(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "cache" {
		t.Fatalf("repeat answer source %q, want cache", second.Source)
	}
	if !reflect.DeepEqual(first.Data, second.Data) {
		t.Fatal("cached answer diverged from computed one")
	}

	// Concurrent identical uncached queries: all succeed, all agree.
	spec2 := spec
	spec2.Window.To = testDay.Add(23 * time.Hour)
	const n = 16
	answers := make([]*serve.Answer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := s.Answer(context.Background(), spec2)
			if err != nil {
				t.Error(err)
				return
			}
			answers[i] = a
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if answers[i] == nil || !reflect.DeepEqual(answers[i].Data, answers[0].Data) {
			t.Fatalf("concurrent answer %d diverged", i)
		}
	}

	// Live append → refresh → cache dropped, answers reflect new data.
	day2 := cfg
	day2.Day = cfg.Day.Add(24 * time.Hour)
	_, sources2 := workload.DaySources(day2)
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(stream.Concat(sources2...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	wide := serve.QuerySpec{Kind: serve.KindTable2}
	grown, err := s.Answer(context.Background(), wide)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Source == "cache" {
		t.Fatal("post-refresh answer served from stale cache")
	}
	if grown.Data.(serve.CountsData).Announcements <= first.Data.(serve.CountsData).Announcements {
		t.Fatal("post-refresh answer does not include the appended day")
	}
}

// blockingBackend is a fake engine whose State blocks until released
// or until its caller's context ends.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) Name() string { return "blocking" }

func (b *blockingBackend) State(ctx context.Context, spec serve.QuerySpec) (*serve.StateEnvelope, error) {
	b.entered <- struct{}{}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.release:
	}
	return &serve.StateEnvelope{Backend: b.Name(), Generation: 1, Source: "snapshots",
		Keys: []string{"counts"}, States: [][]byte{analysis.NewCounts().Snapshot(nil)}}, nil
}

func (b *blockingBackend) Refresh(context.Context) (serve.RefreshStats, error) {
	return serve.RefreshStats{Generation: 1}, nil
}

func (b *blockingBackend) Watch(ctx context.Context, _ time.Duration, _ func(serve.RefreshStats, error)) error {
	<-ctx.Done()
	return ctx.Err()
}

func (b *blockingBackend) Health(context.Context) (serve.BackendHealth, error) {
	return serve.BackendHealth{Backend: b.Name(), OK: true, Generation: 1}, nil
}

// TestServeFollowerSurvivesLeaderCancel: a caller that joined another
// caller's in-flight compute does not inherit that leader's
// cancellation; it recomputes under its own context.
func TestServeFollowerSurvivesLeaderCancel(t *testing.T) {
	b := &blockingBackend{entered: make(chan struct{}, 2), release: make(chan struct{})}
	s, _, err := serve.New(context.Background(), serve.Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.QuerySpec{Kind: serve.KindTable2}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := s.Answer(leaderCtx, spec)
		leader <- err
	}()
	<-b.entered
	follower := make(chan error, 1)
	go func() {
		_, err := s.Answer(context.Background(), spec)
		follower <- err
	}()
	// Let the follower miss the cache and join the leader's flight.
	for s.Stats(context.Background()).Cache.Misses < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	cancelLeader()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
	select {
	case <-b.entered: // the follower's own recompute
	case err := <-follower:
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("follower never recomputed")
	}
	close(b.release)
	if err := <-follower; err != nil {
		t.Fatal(err)
	}
}

// TestServeRefreshCountsOnlyChanges: a refresh that finds nothing new
// neither counts as a refresh nor drops the cache; one that finds a
// sealed day does both.
func TestServeRefreshCountsOnlyChanges(t *testing.T) {
	cfg := smallCfg()
	cfg.Collectors = 1
	_, sources := workload.DaySources(cfg)
	dir := buildStore(t, stream.Concat(sources...))
	ctx := context.Background()
	s, _, err := serve.New(ctx, serve.Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.QuerySpec{Kind: serve.KindTable2}
	if _, err := s.Answer(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rs, err := s.Refresh(ctx); err != nil || rs.Changed {
			t.Fatalf("refresh of an unchanged store: changed=%v err=%v", rs.Changed, err)
		}
	}
	if got := s.Stats(ctx).Refreshes; got != 0 {
		t.Fatalf("no-op refreshes counted: Refreshes = %d, want 0", got)
	}
	if a, err := s.Answer(ctx, spec); err != nil || a.Source != "cache" {
		t.Fatalf("no-op refresh dropped the cache: source %q, err %v", a.Source, err)
	}

	day2 := cfg
	day2.Day = cfg.Day.Add(24 * time.Hour)
	_, sources2 := workload.DaySources(day2)
	appendEvents(t, dir, stream.Concat(sources2...), nil, 0)
	if rs, err := s.Refresh(ctx); err != nil || !rs.Changed {
		t.Fatalf("refresh after ingest: changed=%v err=%v", rs.Changed, err)
	}
	if got := s.Stats(ctx).Refreshes; got != 1 {
		t.Fatalf("Refreshes = %d after one changing refresh, want 1", got)
	}
	if a, err := s.Answer(ctx, spec); err != nil || a.Source == "cache" {
		t.Fatalf("changing refresh kept the cache: source %q, err %v", a.Source, err)
	}
}

// TestStateHandlerCachesEnvelopes: a shard daemon's POST /v1/state goes
// through the Server's cache, so a repeat spec is a counted hit that
// returns the very same envelope bytes.
func TestStateHandlerCachesEnvelopes(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.StateHandler())
	defer ts.Close()

	spec := serve.QuerySpec{Kind: serve.KindTable1,
		Window: evstore.TimeRange{From: testDay.Add(2 * time.Hour), To: testDay.Add(20 * time.Hour)}}
	first := postState(t, ts.URL, spec)
	second := postState(t, ts.URL, spec)
	if !bytes.Equal(first, second) {
		t.Fatal("repeat /v1/state envelope differs from the first")
	}
	if st := s.Stats(context.Background()).Cache; st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache after two identical state calls: %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	env, err := serve.DecodeStateEnvelope(first)
	if err != nil {
		t.Fatal(err)
	}
	if env.Partial() || len(env.States) != 1 {
		t.Fatalf("envelope partial=%v with %d states", env.Partial(), len(env.States))
	}
}

// TestServeHTTP drives the JSON API end to end.
func TestServeHTTP(t *testing.T) {
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getJSON := func(path string, wantStatus int) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return m
	}

	from := testDay.Format(time.RFC3339)
	to := testDay.Add(24 * time.Hour).Format(time.RFC3339)
	ans := getJSON("/v1/table2?from="+from+"&to="+to, 200)
	if ans["source"] != "snapshots" {
		t.Errorf("table2 source %v, want snapshots", ans["source"])
	}
	data := ans["data"].(map[string]any)
	if data["announcements"].(float64) <= 0 {
		t.Error("table2 served zero announcements")
	}
	if again := getJSON("/v1/table2?from="+from+"&to="+to, 200); again["source"] != "cache" {
		t.Errorf("repeat table2 source %v, want cache", again["source"])
	}

	getJSON("/v1/table1?from="+from+"&to="+to, 200)
	getJSON("/v1/figure/6", 200)
	getJSON("/v1/infer/peers", 200)
	getJSON("/v1/infer/ingress", 200)
	getJSON("/v1/stats", 200)
	getJSON("/healthz", 200)
	getJSON("/v1/figure/3?collector=rrc00&prefix=84.205.64.0/24", 200)
	getJSON("/v1/figure/9", 404)
	getJSON("/v1/figure/3", 400)               // missing params
	getJSON("/v1/table2?from=not-a-time", 400) // bad time
	getJSON("/v1/figure/2?fromyear=2020&toyear=2019", 400)

	stats := getJSON("/v1/stats", 200)
	if stats["partitions"].(float64) == 0 {
		t.Error("stats report zero partitions")
	}
}

// TestServeHTTPLoadSmoke is the load smoke: 128 concurrent clients —
// deliberately held until at least 100 requests are simultaneously
// in flight inside the server — issue mixed cached/uncached windowed
// queries against the live HTTP API. Everything must succeed and
// identical queries must agree. Gated behind -short because it holds
// a hundred-plus connections open.
func TestServeHTTPLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke skipped in -short mode")
	}
	_, sources := workload.DaySources(smallCfg())
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 128
	const barrier = 100
	var inFlight, peak atomic.Int64
	var gate sync.WaitGroup
	gate.Add(barrier)
	var gateOnce [barrier]sync.Once
	handler := s.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		// The first `barrier` requests wait for each other: the server
		// must sustain that many simultaneously in-flight queries.
		if idx := cur - 1; idx < barrier {
			gateOnce[idx].Do(gate.Done)
			gate.Wait()
		}
		handler.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(wrapped)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

	paths := make([]string, 16)
	for i := range paths {
		from := testDay.Add(time.Duration(i) * time.Hour).Format(time.RFC3339)
		to := testDay.Add(time.Duration(20+i) * time.Hour).Format(time.RFC3339)
		kind := []string{"table2", "table1", "infer/peers", "figure/6"}[i%4]
		paths[i] = fmt.Sprintf("/v1/%s?from=%s&to=%s", kind, from, to)
	}

	results := make([]map[string]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make(map[string]int)
			for rep := 0; rep < 3; rep++ {
				path := paths[(c+rep)%len(paths)]
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var m map[string]any
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("client %d: status %d err %v", c, resp.StatusCode, err)
					return
				}
				if data, ok := m["data"].(map[string]any); ok {
					if v, ok := data["announcements"].(float64); ok {
						got[path] = int(v)
					}
				}
			}
			results[c] = got
		}()
	}
	wg.Wait()
	if p := peak.Load(); p < barrier {
		t.Errorf("peak in-flight %d, want >= %d", p, barrier)
	}
	// Identical paths must have returned identical counts everywhere.
	agreed := make(map[string]int)
	for c, got := range results {
		for path, v := range got {
			if want, ok := agreed[path]; ok && want != v {
				t.Fatalf("client %d: %s returned %d, others saw %d", c, path, v, want)
			}
			agreed[path] = v
		}
	}
	st := s.Stats(context.Background())
	t.Logf("load smoke: peak in-flight %d, %d queries, cache %+v, deduped %d",
		peak.Load(), st.Queries, st.Cache, st.Deduped)
}

// TestServeWatchRefreshesOnIngest wires the full live loop: daemon
// watching, ingest seals a new day, watcher refreshes, queries see it.
func TestServeWatchRefreshesOnIngest(t *testing.T) {
	cfg := smallCfg()
	cfg.Collectors = 1
	_, sources := workload.DaySources(cfg)
	dir := buildStore(t, stream.Concat(sources...))
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Answer(context.Background(), serve.QuerySpec{Kind: serve.KindTable2})
	if err != nil {
		t.Fatal(err)
	}

	refreshed := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	watching := make(chan struct{})
	go func() {
		defer close(watching)
		s.Watch(ctx, 10*time.Millisecond, func(bs serve.RefreshStats, err error) {
			// A refresh cut short by the cancel below is teardown,
			// not a failure.
			if err != nil && ctx.Err() == nil {
				t.Error(err)
			}
			select {
			case refreshed <- struct{}{}:
			default:
			}
		})
	}()
	// Stop the watcher before the store's TempDir is removed under it.
	defer func() {
		cancel()
		<-watching
	}()

	day2 := cfg
	day2.Day = cfg.Day.Add(24 * time.Hour)
	_, sources2 := workload.DaySources(day2)
	w, err := evstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Ingest(stream.Concat(sources2...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case <-refreshed:
	case <-time.After(10 * time.Second):
		t.Fatal("watcher never refreshed after ingest")
	}
	after, err := s.Answer(context.Background(), serve.QuerySpec{Kind: serve.KindTable2})
	if err != nil {
		t.Fatal(err)
	}
	if after.Data.(serve.CountsData).Announcements <= before.Data.(serve.CountsData).Announcements {
		t.Fatal("watched daemon still serves the old store")
	}
}

// BenchmarkServeWarmVsCold is the serving speedup: the same windowed
// Table-2 question answered (a) by a cold shard-parallel scan, (b) by
// the warm daemon — snapshot merges on first sight, the LRU cache on
// repeats. The acceptance bar is warm ≥ 5x cold.
func BenchmarkServeWarmVsCold(b *testing.B) {
	cfg := workload.DefaultDayConfig(testDay)
	cfg.Collectors = 3
	dir := buildStore(b, workload.MultiDaySource(cfg, 2))
	window := evstore.TimeRange{From: testDay, To: testDay.Add(24 * time.Hour)}

	b.Run("cold-scanparallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counts := analysis.NewCounts()
			if _, err := evstore.ScanParallel(context.Background(), dir, evstore.Query{}, window, 0, counts); err != nil {
				b.Fatal(err)
			}
		}
	})
	s, _, err := serve.New(context.Background(), serve.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	spec := serve.QuerySpec{Kind: serve.KindTable2, Window: window}
	b.Run("warm-snapshots-nocache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Vary the window end by one nanosecond per iteration: every
			// query misses the cache but still plans onto the same
			// partition snapshots.
			sp := spec
			sp.Window.To = window.To.Add(time.Duration(i + 1))
			if _, err := s.Answer(context.Background(), sp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Answer(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
