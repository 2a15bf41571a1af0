package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string // parent of the run's store directories
	setups   int    // set-ups per run; setup_s is their median
}

// setupsPerRun is how many times a run builds its system; setup_s is
// the median.
const setupsPerRun = 7

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   *report // the workload's metric set, carried by the JSON line
	notes     *report // printed for the reader only
	spans     *tracer
}

func (r *result) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failedLatency stands for a failed, refused or wrong request in the
// latency percentiles: it is above every limit.
const failedLatency = time.Hour

// probePath is the freshness probe: every event of the churn collector.
const probePath = "/v1/table2?collectors=churn00"

// runBenchmark executes one run of one workload.
func runBenchmark(ctx context.Context, o options) (*result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	tr := newTracer()
	root := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", w.name, o.seed, time.Now().UnixNano()))
	defer removeAll(root)

	var setups []setupTimes
	var sys *system
	for i := 0; i < o.setups; i++ {
		s, err := buildSystem(ctx, filepath.Join(root, fmt.Sprint(i)), o.seed, w.coordinator, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.setup)
		if i < o.setups-1 {
			s.close()
			removeAll(s.dir)
			continue
		}
		sys = s
	}
	defer sys.close()

	res := &result{correct: true, metrics: newReport(), notes: newReport(), spans: tr}
	tf := newTraffic(w, sys.prof, o.seed)
	src := &source{next: tf.next}
	c := newClient(sys.front.base, nproc, tr)
	c.parse = o.trace
	defer c.close()

	// Reference answers from a fresh, uncached single node over the
	// unsplit store, then the served cache filled with every dashboard
	// path: both before the clock starts.
	ref, err := referenceHashes(ctx, sys.store, tf.hotKeys, c)
	if err != nil {
		return nil, err
	}
	if err := prefill(ctx, c, tf.hotKeys, ref, nproc, res); err != nil {
		return nil, err
	}

	var pr *probe
	var stopChurn context.CancelFunc
	var stopWatch func()
	if w.churn {
		var cctx context.Context
		cctx, stopChurn = context.WithCancel(ctx)
		defer stopChurn()
		sys.stop = stopChurn
		stopWatch = sys.watch(cctx, 100*time.Millisecond)
		if err := sys.startChurn(cctx, &loadgen.ChurnFeed{EventsPerSec: churnRate, Seed: o.seed}); err != nil {
			return nil, fmt.Errorf("churn: %w", err)
		}
		pr = &probe{c: newClient(sys.front.base, 1, tr), feed: sys.feed}
		defer pr.c.close()
		pr.start(cctx, 50*time.Millisecond)
		// Let the first seals and refreshes happen before timing.
		time.Sleep(1500 * time.Millisecond)
	}

	before, err := scrapeAll(ctx, sys)
	if err != nil {
		return nil, err
	}
	// Earlier set-ups and the reference server leave garbage behind;
	// collect it so the window's heap reflects the serving system.
	runtime.GC()
	rt0 := readRuntime()
	samples, rounds, ost := measure(ctx, c, src, tr, w.rate, o, nproc)
	rt1 := readRuntime()
	after, err := scrapeAll(ctx, sys)
	if err != nil {
		return nil, err
	}

	var ch churnOutcome
	if w.churn {
		ch = finishChurn(ctx, sys, pr, stopWatch, res)
		stopChurn()
	}

	checkSamples(samples, ref, tf.isHot, res)
	if err := checkExplored(ctx, sys.store, samples, tf.isHot, c, o.seed, res); err != nil {
		return nil, err
	}
	res.attempted = len(samples)
	for i := range samples {
		if !samples[i].ok() {
			res.failed++
		}
	}

	bytes, err := storeBytes(sys.store)
	if err != nil {
		return nil, err
	}
	events := sys.events + ch.emitted

	m := res.metrics
	if !o.trace {
		// The costs are per open-loop request of the whole process:
		// servers, background ingest and refresh, GC, and the benchmark's
		// own client. The percentiles pool every open-loop sample of the
		// run; the peak heap is the median over rounds.
		var peak []float64
		for _, r := range rounds {
			peak = append(peak, float64(r.heapPeak)/(1<<20))
		}
		lat := latencies(samples)
		n := float64(len(samples))
		m.set("cpu_ms_per_req", ms(rt1.rusageCPU-rt0.rusageCPU)/n, "ms")
		m.set("alloc_kb_per_req", float64(rt1.allocBytes-rt0.allocBytes)/1024/n, "KiB")
		m.set("setup_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.total }), "s")
		m.set("heap_peak_mb", percentile(peak, 0.5), "MiB")
		m.set("store_bytes_per_event", float64(bytes)/float64(events), "B")
		res.notes.set("p50_ms", percentile(lat, 0.50), "ms")
		res.notes.set("p90_ms", percentile(lat, 0.90), "ms")
		res.notes.set("p99_ms", percentile(lat, 0.99), "ms")
		res.notes.set("latency.samples", float64(len(lat)), "count")
		res.notes.set("error_rate", ratio(float64(res.failed), float64(res.attempted)), "ratio")
		res.notes.set("nproc", float64(nproc), "count")
		return res, nil
	}
	layers := layerInputs{
		w: w, sys: sys, samples: samples, rounds: rounds, ost: ost,
		before: before, after: after, rt0: rt0, rt1: rt1, setups: setups,
		churn: ch, res: res,
	}
	layers.report(m)
	return res, nil
}

// planRounds cuts the timed window into rounds of one second. An
// untraced run spends it all on the open loop, whose requests the
// end-to-end costs are divided by. A traced run spends the first half,
// in whole seconds, on the closed loop, for throughput and tracing's
// cost, and the rest on the open loop; windows under two seconds get
// one round of each.
//
// Under churn every second seals a partition, and each seal's refresh
// clears the answer cache, so the second after it is spent refilling
// the cache. Rounds of whole seconds each hold one seal, and since the
// two loops each run in one stretch, neither depends on where in the
// second the seals fall; alternating them every second would fix that
// phase for a whole run, so that in some runs the closed loop would do
// the refilling and in others the open loop.
func planRounds(total time.Duration, traced bool) (closed, open []time.Duration) {
	var n int
	switch {
	case !traced:
	case total < 2*time.Second:
		return []time.Duration{total / 2}, []time.Duration{total - total/2}
	default:
		n = int(total / 2 / time.Second)
	}
	for i := 0; i < n; i++ {
		closed = append(closed, time.Second)
	}
	for rest := total - time.Duration(n)*time.Second; rest > 0; rest -= time.Second {
		open = append(open, min(rest, time.Second))
	}
	return closed, open
}

// round is one closed-loop or one open-loop stretch of the window;
// openFrom and openTo index an open round's samples.
type round struct {
	closed       segment // untraced
	closedTraced segment // traced runs: odd closed rounds are traced
	openFrom     int
	openTo       int
	heapPeak     uint64
}

// measure runs the timed window. In a traced run odd closed rounds are
// traced and even ones are not, and every open round is traced.
func measure(ctx context.Context, c *client, src *source, tr *tracer, rate float64, o options, nproc int) ([]sample, []round, openStats) {
	var samples []sample
	var rounds []round
	var ost openStats
	openRng := rand.New(rand.NewSource(o.seed + 7))
	closedPlan, openPlan := planRounds(o.seconds, o.trace)
	for k, d := range closedPlan {
		var r round
		hp := startHeapPeak(2 * time.Millisecond)
		g := segment{from: len(samples), d: d}
		tr.on.Store(o.trace && k%2 == 1)
		samples = append(samples, closedLoop(ctx, c, src, nproc, d)...)
		tr.on.Store(false)
		g.to = len(samples)
		if o.trace && k%2 == 1 {
			r.closedTraced = g
		} else {
			r.closed = g
		}
		r.heapPeak = hp.finish()
		rounds = append(rounds, r)
	}
	for _, d := range openPlan {
		var r round
		hp := startHeapPeak(2 * time.Millisecond)
		tr.on.Store(o.trace)
		r.openFrom = len(samples)
		open, st := openRun(ctx, c, src, openRng, rate, d)
		tr.on.Store(false)
		samples = append(samples, open...)
		r.openTo = len(samples)
		r.heapPeak = hp.finish()
		ost.late = append(ost.late, st.late...)
		ost.maxInflight = max(ost.maxInflight, st.maxInflight)
		rounds = append(rounds, r)
	}
	return samples, rounds, ost
}

// latencies returns every sample's latency in ms, counting a failed
// request as above every limit.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		d := ss[i].latency
		if !ss[i].ok() {
			d = failedLatency
		}
		out[i] = ms(d)
	}
	return out
}

func medianSetup(ss []setupTimes, f func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s).Seconds()
	}
	return percentile(xs, 0.5)
}

// scrapeAll fetches every server's /metrics: the front first, then the
// shards in order.
func scrapeAll(ctx context.Context, sys *system) ([]series, error) {
	nodes := append([]*node{sys.front}, sys.shards...)
	out := make([]series, len(nodes))
	for i, n := range nodes {
		c := newClient(n.base, 1, newTracer())
		s, err := scrape(ctx, c)
		c.close()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// referenceHashes answers every path on a fresh single-node server over
// dir, through its HTTP handler, and hashes each answer's data.
func referenceHashes(ctx context.Context, dir string, paths []string, c *client) (map[string]uint64, error) {
	ref := make(map[string]uint64, len(paths))
	if len(paths) == 0 {
		return ref, nil
	}
	srv, _, err := serve.New(ctx, serve.Config{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	h := srv.Handler()
	for _, p := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil).WithContext(ctx))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference %s: HTTP %d: %s", p, rec.Code, rec.Body.Bytes())
		}
		ref[p] = c.hashData(rec.Body.Bytes())
	}
	return ref, nil
}

// prefill asks the served system every dashboard path once, with
// workers clients, and checks each answer against the reference.
func prefill(ctx context.Context, c *client, paths []string, ref map[string]uint64, workers int, res *result) error {
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				status, body, err := c.get(ctx, p)
				mu.Lock()
				switch {
				case err != nil:
					firstErr = errors.Join(firstErr, err)
				case status != http.StatusOK:
					firstErr = errors.Join(firstErr, fmt.Errorf("prefill %s: HTTP %d", p, status))
				case c.hashData(body) != ref[p]:
					res.problem("prefill answer for %s differs from the single-node reference", p)
				}
				mu.Unlock()
			}
		}()
	}
	for _, p := range paths {
		next <- p
	}
	close(next)
	wg.Wait()
	return firstErr
}

// checkSamples marks dashboard answers that differ from the reference.
func checkSamples(ss []sample, ref map[string]uint64, isHot map[string]bool, res *result) {
	wrong := 0
	for i := range ss {
		s := &ss[i]
		if s.status == http.StatusOK && isHot[s.path] && s.hash != ref[s.path] {
			s.wrong = true
			wrong++
		}
	}
	if wrong > 0 {
		res.problem("%d answers differ from the single-node reference", wrong)
	}
}

// exploreChecks is how many exploration answers are re-asked of a
// fresh server.
const exploreChecks = 40

// checkExplored re-answers a seeded sample of the run's exploration
// specs on a fresh uncached single node and compares.
func checkExplored(ctx context.Context, dir string, ss []sample, isHot map[string]bool, c *client, seed int64, res *result) error {
	var idx []int
	for i := range ss {
		if ss[i].status == http.StatusOK && !isHot[ss[i].path] {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed + 13))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	idx = idx[:min(exploreChecks, len(idx))]
	paths := make([]string, len(idx))
	for i, j := range idx {
		paths[i] = ss[j].path
	}
	ref, err := referenceHashes(ctx, dir, paths, c)
	if err != nil {
		return err
	}
	wrong := 0
	for _, j := range idx {
		if ss[j].hash != ref[ss[j].path] {
			ss[j].wrong = true
			wrong++
		}
	}
	if wrong > 0 {
		res.problem("%d of %d re-asked exploration answers differ from a fresh single node", wrong, len(idx))
	}
	return nil
}

// probe reads the churn collector's event count and, for each event
// the count newly includes, records the time since it was emitted.
type probe struct {
	c    *client
	feed *feedWrap

	mu     sync.Mutex
	marked int
	count  int
	fresh  []float64 // ms
	errs   int
	done   chan struct{}
}

func (p *probe) once(ctx context.Context) {
	status, body, err := p.c.get(ctx, probePath)
	recv := time.Now()
	var ans struct {
		Data struct {
			Announcements int `json:"announcements"`
			Withdrawals   int `json:"withdrawals"`
		} `json:"data"`
	}
	ok := err == nil && (status == http.StatusOK || status == http.StatusServiceUnavailable)
	if ok && status == http.StatusOK {
		ok = json.Unmarshal(body, &ans) == nil
	}
	emits := p.feed.emits()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !ok {
		if ctx.Err() == nil {
			p.errs++
		}
		return
	}
	p.count = ans.Data.Announcements + ans.Data.Withdrawals
	for p.marked < p.count && p.marked < len(emits) {
		p.fresh = append(p.fresh, ms(recv.Sub(emits[p.marked])))
		p.marked++
	}
}

func (p *probe) start(ctx context.Context, every time.Duration) {
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			p.once(ctx)
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
}

// churnOutcome is what live ingest did during a run.
type churnOutcome struct {
	emitted int
	sealed  int
	sheds   uint64
	blocked []float64
	fresh   []float64
	ingest  series
	refresh []serve.RefreshStats
}

// finishChurn stops the feed, drains the plane, stops the watcher,
// refreshes the server once more and waits for the probe to count
// every emitted event. The watcher is stopped first because refreshes
// are not serialised: one started by the watcher could finish after
// the final refresh and install its older view of the store.
func finishChurn(ctx context.Context, sys *system, pr *probe, stopWatch func(), res *result) churnOutcome {
	var out churnOutcome
	st, err := sys.plane.Drain(10 * time.Second)
	if err != nil {
		res.problem("ingest drain: %v", err)
	}
	stopWatch()
	for _, c := range st.Collectors {
		out.sealed += c.Writer.Sealed
	}
	out.sheds = st.Sheds
	if _, err := sys.front.srv.Refresh(ctx); err != nil {
		res.problem("refresh after drain: %v", err)
	}
	out.emitted = len(sys.feed.emits())
	if uint64(out.emitted) != st.Events {
		res.problem("feed emitted %d events, plane counted %d", out.emitted, st.Events)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		pr.once(ctx)
		pr.mu.Lock()
		n := pr.count
		pr.mu.Unlock()
		if n == out.emitted {
			break
		}
		if time.Now().After(deadline) {
			res.problem("freshness probe counts %d events after drain, %d were emitted", n, out.emitted)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sys.stop()
	<-pr.done
	pr.mu.Lock()
	out.fresh = append(out.fresh, pr.fresh...)
	probeErrs := pr.errs
	pr.mu.Unlock()
	if probeErrs > 0 {
		res.problem("freshness probe failed %d times", probeErrs)
	}
	sys.feed.mu.Lock()
	out.blocked = append(out.blocked, sys.feed.blocked...)
	sys.feed.mu.Unlock()
	out.refresh = sys.refreshLog()
	if s, err := registryText(sys.ireg); err != nil {
		res.problem("%v", err)
	} else {
		out.ingest = s
	}
	if len(out.refresh) == 0 {
		res.problem("no refresh happened under churn")
	}
	return out
}

// layerInputs is everything the traced run's per-layer numbers are
// computed from.
type layerInputs struct {
	w             workloadDef
	sys           *system
	samples       []sample
	rounds        []round
	ost           openStats
	before, after []series
	rt0, rt1      runtimeSample
	setups        []setupTimes
	churn         churnOutcome
	res           *result
}

func (in *layerInputs) report(m *report) {
	// Load generator.
	late := make([]float64, len(in.ost.late))
	for i, d := range in.ost.late {
		late[i] = ms(d)
	}
	m.set("gen.late_ms.p99", percentile(late, 0.99), "ms")
	m.set("gen.inflight.max", float64(in.ost.maxInflight), "count")
	m.set("latency.samples", float64(len(in.ost.late)), "count")
	var open []sample
	for _, r := range in.rounds {
		open = append(open, in.samples[r.openFrom:r.openTo]...)
	}
	lat := latencies(open)
	m.set("latency.p50_ms", percentile(lat, 0.50), "ms")
	m.set("latency.p90_ms", percentile(lat, 0.90), "ms")
	m.set("latency.p99_ms", percentile(lat, 0.99), "ms")
	m.set("error_rate", ratio(float64(in.res.failed), float64(in.res.attempted)), "ratio")

	tree := buildTree(in.sys.tr.snapshot())
	led := tree.ledger()

	// serve HTTP.
	front := in.sys.front
	hd, hb := front.hw.rec.snapshot()
	m.set("http.handler_ms.p50", percentile(hd, 0.5), "ms")
	m.set("http.self_ms.p50", led.SelfP50[spanHandler], "ms")
	m.set("http.wire_ms.p50", led.SelfP50[spanClient], "ms")
	m.set("http.resp_bytes.mean", mean(hb), "B")

	// serve cache and singleflight, from /metrics deltas and tiers.
	b, a := in.before[0], in.after[0]
	hits := delta(b, a, "comm_serve_cache_hits_total")
	misses := delta(b, a, "comm_serve_cache_misses_total")
	m.set("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("serve.cache_evictions", delta(b, a, "comm_serve_cache_evictions_total"), "count")
	m.set("serve.refreshes", delta(b, a, "comm_serve_refreshes_total"), "count")
	m.set("serve.deduped", delta(b, a, "comm_serve_deduped_total"), "count")
	var tiers [4]float64
	var tiered float64
	for i := range in.samples {
		if t := in.samples[i].tier; t >= 0 {
			tiers[t]++
			tiered++
		}
	}
	for i, name := range tierNames {
		m.set("serve.tier_share."+name, ratio(tiers[i], tiered), "ratio")
	}

	// serve engine: the Backend the front server drives.
	bd, _ := front.bw.rec.snapshot()
	var busy float64
	for _, d := range bd {
		busy += d
	}
	m.set("backend.state_calls", float64(len(bd)), "count")
	m.set("backend.state_ms.p50", percentile(bd, 0.5), "ms")
	m.set("backend.state_ms.p99", percentile(bd, 0.99), "ms")
	m.set("backend.busy_s", busy/1000, "s")

	// evstore plan and scan, per computed answer.
	var pv []*provenance
	for i := range in.samples {
		if p := in.samples[i].prov; p != nil {
			pv = append(pv, p)
		}
	}
	per := func(f func(*provenance) float64) float64 {
		var sum float64
		for _, p := range pv {
			sum += f(p)
		}
		return ratio(sum, float64(len(pv)))
	}
	m.set("evstore.computed_answers", float64(len(pv)), "count")
	m.set("evstore.partitions_merged", per(func(p *provenance) float64 { return float64(p.Plan.Merged) }), "count")
	m.set("evstore.partitions_jumped", per(func(p *provenance) float64 { return float64(p.Plan.Jumped) }), "count")
	m.set("evstore.partitions_scanned", per(func(p *provenance) float64 { return float64(p.Plan.Scanned) }), "count")
	m.set("evstore.blocks_decoded", per(func(p *provenance) float64 { return float64(p.Scan.BlocksDecoded) }), "count")
	m.set("evstore.blocks_pruned", per(func(p *provenance) float64 { return float64(p.Scan.BlocksPruned) }), "count")
	m.set("evstore.bytes_read", per(func(p *provenance) float64 { return float64(p.Scan.BytesRead) }), "B")
	m.set("evstore.bytes_decompressed", per(func(p *provenance) float64 { return float64(p.Scan.BytesDecompressed) }), "B")
	m.set("evstore.prefetch_ratio", ratio(per(func(p *provenance) float64 { return float64(p.Scan.BlocksPrefetched) }),
		per(func(p *provenance) float64 { return float64(p.Scan.BlocksDecoded) })), "ratio")
	m.set("evstore.events_classified", per(func(p *provenance) float64 { return float64(p.Scan.Events) }), "count")
	m.set("evstore.merges", per(func(p *provenance) float64 { return float64(p.Merges) }), "count")

	// Coordinator fan-out, remote shards and the envelope codec.
	var fan, shardState, straggle, envBytes []float64
	var shardHits, shardCalls int
	if in.w.coordinator {
		fan = bd
		groups := map[uint64][]float64{}
		for _, rb := range in.sys.remotes {
			d, _ := rb.rec.snapshot()
			shardState = append(shardState, d...)
			rb.mu.Lock()
			for parent, ds := range rb.group {
				groups[parent] = append(groups[parent], ds...)
			}
			rb.mu.Unlock()
		}
		for _, ds := range groups {
			if len(ds) == shardCount {
				sort.Float64s(ds)
				straggle = append(straggle, ds[len(ds)-1]-percentileSorted(ds, 0.5))
			}
		}
		for _, n := range in.sys.shards {
			_, nb := n.hw.rec.snapshot()
			envBytes = append(envBytes, nb...)
			h, c := n.bw.hitCount()
			shardHits += h
			shardCalls += c
		}
	}
	m.set("coord.fanout_ms.p50", percentile(fan, 0.5), "ms")
	m.set("coord.fanout_ms.p99", percentile(fan, 0.99), "ms")
	m.set("coord.shard_state_ms.p50", percentile(shardState, 0.5), "ms")
	m.set("coord.straggler_ms.p50", percentile(straggle, 0.5), "ms")
	m.set("coord.envelope_bytes.mean", mean(envBytes), "B")
	m.set("coord.shard_cache_hit_ratio", ratio(float64(shardHits), float64(shardCalls)), "ratio")

	// Live ingest and the refreshes it causes.
	ch := in.churn
	m.set("ingest.events", float64(ch.emitted), "count")
	m.set("ingest.emit_block_ms.p99", percentile(ch.blocked, 0.99), "ms")
	m.set("ingest.partitions_sealed", float64(ch.sealed), "count")
	m.set("ingest.sheds", float64(ch.sheds), "count")
	m.set("ingest.event_to_sealed_ms.p50", 1000*histogramQuantile(ch.ingest, "comm_ingest_event_to_sealed_seconds", 0.5), "ms")
	m.set("freshness_p50_ms", percentile(ch.fresh, 0.5), "ms")
	m.set("freshness_p99_ms", percentile(ch.fresh, 0.99), "ms")
	m.set("freshness.samples", float64(len(ch.fresh)), "count")
	var rms []float64
	var built, decoded float64
	for _, rs := range ch.refresh {
		rms = append(rms, ms(rs.Elapsed))
		built += float64(rs.Built)
		decoded += float64(rs.Events)
	}
	m.set("refresh.count", float64(len(ch.refresh)), "count")
	m.set("refresh.ms.p50", percentile(rms, 0.5), "ms")
	m.set("refresh.ms.p99", percentile(rms, 0.99), "ms")
	m.set("refresh.sidecars_built", built, "count")
	m.set("refresh.events_decoded", decoded, "count")

	// Go runtime, whole process (servers and load generator share it).
	m.set("runtime.gc_cycles", float64(in.rt1.gcCycles-in.rt0.gcCycles), "count")
	m.set("runtime.gc_pause_ms.total", 1000*(in.rt1.gcPauseCPU-in.rt0.gcPauseCPU)/float64(runtime.GOMAXPROCS(0)), "ms")
	m.set("runtime.cpu_ms_per_req", ratio(ms(in.rt1.rusageCPU-in.rt0.rusageCPU), float64(len(in.samples))), "ms")

	// Set-up steps, medians over the run's set-ups.
	m.set("setup.generate_s", medianSetup(in.setups, func(s setupTimes) time.Duration { return s.generate }), "s")
	m.set("setup.ingest_s", medianSetup(in.setups, func(s setupTimes) time.Duration { return s.ingest }), "s")
	m.set("setup.sidecars_s", medianSetup(in.setups, func(s setupTimes) time.Duration { return s.sidecars }), "s")
	m.set("setup.split_s", medianSetup(in.setups, func(s setupTimes) time.Duration { return s.split }), "s")

	// The blocking-path ledger of traced requests and tracing's cost.
	m.set("trace.spans", float64(len(tree.byID)), "count")
	m.set("trace.client_ms.mean", led.ClientMean, "ms")
	for _, name := range []string{spanHandler, spanBackend, spanRemote, spanShardHandler, spanShardBackend} {
		m.set("trace.path_ms."+name, led.Layers[name], "ms")
	}
	m.set("trace.unexplained_ms.mean", led.Unexplained, "ms")
	m.set("trace.unexplained_share", ratio(led.Unexplained, led.ClientMean), "ratio")
	var us, ts []segment
	for _, r := range in.rounds {
		if r.closedTraced.d > 0 {
			ts = append(ts, r.closedTraced)
		} else if r.closed.d > 0 {
			us = append(us, r.closed)
		}
	}
	untraced, traced := pooledThroughput(in.samples, us), pooledThroughput(in.samples, ts)
	m.set("trace.overhead_ratio", ratio(untraced-traced, untraced), "ratio")
	m.set("throughput_untraced_rps", untraced, "req/s")
	m.set("throughput_traced_rps", traced, "req/s")
}
