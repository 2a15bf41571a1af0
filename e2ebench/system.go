package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/evstore"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// benchDay is the generated store's measured day.
var benchDay = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// dayConfig is the store every workload serves: the default March-2020
// day, scaled to a twelfth of its prefixes, and seeded by the
// benchmark's --seed. At this size one run builds it five times in a
// few seconds, and the recomputes after every churn seal leave two CPUs
// well short of saturation at the open-loop rate, where latency would
// swing with every change in the CPU share the host grants.
func dayConfig(seed int64) workload.DayConfig {
	cfg := workload.DefaultDayConfig(benchDay)
	cfg.Seed = seed
	cfg.PrefixesV4 = 50
	cfg.PrefixesV6 = 5
	return cfg
}

// shardCount is the coordinator workload's fan-out.
const shardCount = 4

// node is one serve.Server behind admission control and the handler
// wrapper, on its own loopback listener.
type node struct {
	srv  *serve.Server
	reg  *obs.Registry
	hs   *http.Server
	base string
	hw   *handlerWrap
	bw   *backendWrap
	done chan struct{}
}

func startNode(srv *serve.Server, reg *obs.Registry, m *serve.Metrics, h http.Handler, hw *handlerWrap, bw *backendWrap) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hw.next = serve.Admission(serve.AdmissionConfig{MaxInflight: 1024, Metrics: m}, h)
	n := &node{srv: srv, reg: reg, hs: &http.Server{Handler: hw}, base: "http://" + ln.Addr().String(),
		hw: hw, bw: bw, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n, nil
}

func (n *node) close() {
	n.hs.Close()
	<-n.done
}

// setupTimes splits one set-up into its timed steps.
type setupTimes struct {
	generate, ingest, sidecars, split, total time.Duration
}

// profile is what the benchmark knows about the generated store.
type profile struct {
	collectors []string
	peerAS     []uint32
}

// system is one freshly built store and the servers over it.
type system struct {
	dir     string
	store   string
	events  int
	prof    profile
	front   *node
	shards  []*node
	remotes []*backendWrap // the coordinator's shard clients
	setup   setupTimes
	tr      *tracer

	stop context.CancelFunc // stops watchers and ingest
	wg   sync.WaitGroup

	refreshMu sync.Mutex
	refreshes []serve.RefreshStats

	plane *ingest.Plane
	ireg  *obs.Registry
	feed  *feedWrap
}

// timedSource runs src and charges the time spent inside the consumer
// (the store writer) to *consumer; the rest of the pass is generation.
func timedSource(src stream.EventSource, consumer *time.Duration) stream.EventSource {
	return func(yield func(classify.Event) bool) {
		for e := range src {
			t := time.Now()
			ok := yield(e)
			*consumer += time.Since(t)
			if !ok {
				return
			}
		}
	}
}

// buildSystem generates the store for seed under dir, builds its
// sidecars (and shards), starts the servers and waits until the front
// answers /readyz with 200.
func buildSystem(ctx context.Context, dir string, seed int64, coordinator bool, tr *tracer) (*system, error) {
	start := time.Now()
	s := &system{dir: dir, store: filepath.Join(dir, "store"), tr: tr}
	cfg := dayConfig(seed)
	peers, srcs := workload.DaySources(cfg)
	s.prof = storeProfile(peers)
	var writing time.Duration
	ws, err := evstore.Ingest(s.store, timedSource(stream.Concat(srcs...), &writing))
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	s.events = ws.Events
	s.setup.ingest = writing
	s.setup.generate = time.Since(start) - writing

	t := time.Now()
	if !coordinator {
		lb, _, err := serve.NewLocalBackend(ctx, serve.Config{Dir: s.store})
		if err != nil {
			return nil, err
		}
		s.setup.sidecars = time.Since(t)
		bw := newBackendWrap(lb, tr, spanBackend, -1)
		if s.front, err = s.startServer(ctx, s.store, bw, false, &handlerWrap{tr: tr, name: spanHandler, shard: -1}); err != nil {
			return nil, err
		}
	} else if err := s.startCluster(ctx, t); err != nil {
		s.close()
		return nil, err
	}
	if err := waitReady(ctx, s.front.base); err != nil {
		s.close()
		return nil, err
	}
	s.setup.total = time.Since(start)
	return s, nil
}

// startCluster builds the base store's sidecars, splits it into shard
// stores, and starts one state server per shard plus a coordinator.
func (s *system) startCluster(ctx context.Context, t time.Time) error {
	if _, err := evstore.BuildSnapshots(ctx, s.store, serve.DefaultRegistry()); err != nil {
		return err
	}
	s.setup.sidecars = time.Since(t)
	t = time.Now()
	shardRoot := filepath.Join(s.dir, "shards")
	if _, err := evstore.SplitStore(s.store, shardCount, shardRoot); err != nil {
		return fmt.Errorf("split: %w", err)
	}
	s.setup.split = time.Since(t)
	remotes := make([]serve.Backend, shardCount)
	for i := range remotes {
		dir := filepath.Join(shardRoot, evstore.ShardDirName(i))
		lb, _, err := serve.NewLocalBackend(ctx, serve.Config{Dir: dir})
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		n, err := s.startServer(ctx, dir, newBackendWrap(lb, s.tr, spanShardBackend, -1), true,
			&handlerWrap{tr: s.tr, name: spanShardHandler, shard: i})
		if err != nil {
			return err
		}
		s.shards = append(s.shards, n)
		rb := newBackendWrap(serve.NewRemoteBackend(n.base), s.tr, spanRemote, i)
		s.remotes = append(s.remotes, rb)
		remotes[i] = rb
	}
	bw := newBackendWrap(serve.NewCoordinator(remotes...), s.tr, spanBackend, -1)
	var err error
	s.front, err = s.startServer(ctx, "", bw, false, &handlerWrap{tr: s.tr, name: spanHandler, shard: -1})
	return err
}

func (s *system) startServer(ctx context.Context, dir string, bw *backendWrap, stateOnly bool, hw *handlerWrap) (*node, error) {
	reg := obs.NewRegistry()
	m := serve.NewMetrics(reg)
	srv, _, err := serve.New(ctx, serve.Config{Dir: dir, Backend: bw, Metrics: m})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if stateOnly {
		h = srv.StateHandler()
	}
	return startNode(srv, reg, m, h, hw, bw)
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, base string) error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// storeProfile lists the store's collectors and peer ASes.
func storeProfile(peers []workload.Peer) profile {
	cs, as := map[string]bool{}, map[uint32]bool{}
	for _, p := range peers {
		cs[p.Collector] = true
		as[p.AS] = true
	}
	var pr profile
	for c := range cs {
		pr.collectors = append(pr.collectors, c)
	}
	for a := range as {
		pr.peerAS = append(pr.peerAS, a)
	}
	sort.Strings(pr.collectors)
	sort.Slice(pr.peerAS, func(i, j int) bool { return pr.peerAS[i] < pr.peerAS[j] })
	return pr
}

// watch follows the served store and records every refresh. The
// returned function stops the watcher and waits until it has returned,
// so no refresh of its own is still running.
func (s *system) watch(ctx context.Context, interval time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(done)
		s.front.srv.Watch(ctx, interval, func(rs serve.RefreshStats, err error) {
			if err != nil {
				return
			}
			end := time.Now()
			s.refreshMu.Lock()
			s.refreshes = append(s.refreshes, rs)
			s.refreshMu.Unlock()
			if s.tr.enabled() {
				s.tr.add(span{ID: s.tr.newID(), Name: spanRefresh, Start: s.tr.since(end.Add(-rs.Elapsed)), End: s.tr.since(end)})
			}
		})
	}()
	return func() {
		cancel()
		<-done
	}
}

func (s *system) refreshLog() []serve.RefreshStats {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	return append([]serve.RefreshStats(nil), s.refreshes...)
}

// startChurn attaches feed to an ingest plane sealing into the served
// store every second.
func (s *system) startChurn(ctx context.Context, feed ingest.Feed) error {
	s.ireg = obs.NewRegistry()
	p, err := ingest.NewPlane(ctx, ingest.Config{
		Dir:     s.store,
		Seal:    evstore.SealPolicy{MaxAge: time.Second},
		Metrics: ingest.NewMetrics(s.ireg),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	s.plane = p
	s.feed = &feedWrap{inner: feed, tr: s.tr}
	_, err = p.Attach(s.feed, ingest.FeedOptions{OneShot: true})
	return err
}

// close stops everything the system started.
func (s *system) close() {
	if s.plane != nil {
		s.plane.Drain(10 * time.Second)
	}
	if s.stop != nil {
		s.stop()
	}
	s.wg.Wait()
	if s.front != nil {
		s.front.close()
	}
	for _, n := range s.shards {
		n.close()
	}
}

// storeBytes sums the sizes of every file in the store directory.
func storeBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: cleanup %s: %v\n", dir, err)
	}
}
