package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the client span id to the server's handler wrapper.
const reqHeader = "X-Bench-Span"

// Answer tiers as the server labels them in X-Comm-Tier.
var tierNames = []string{"cached", "snapshot-merge", "residual-scan", "cold-scan"}

func tierIndex(name string) int {
	for i, n := range tierNames {
		if n == name {
			return i
		}
	}
	return -1
}

// sample is one request's outcome.
type sample struct {
	path    string
	latency time.Duration // from due time (open loop) or send (closed loop)
	status  int           // 0 on transport error
	tier    int           // index into tierNames, -1 unknown
	hash    uint64        // hash of the answer's data field
	bytes   int
	prov    *provenance // computed answers in traced runs only
	wrong   bool        // set by the correctness check
	inside  bool        // closed loop: finished before the segment's end
}

func (s *sample) ok() bool { return s.status == http.StatusOK && !s.wrong }

// client issues GETs against one server with at most conns connections.
type client struct {
	base  string
	hc    *http.Client
	tr    *tracer
	seed  maphash.Seed
	bufs  sync.Pool
	parse bool // decode answer provenance of computed answers
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{
		base: base,
		hc:   &http.Client{Transport: t, Timeout: 30 * time.Second},
		tr:   tr,
		seed: maphash.MakeSeed(),
		bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

var dataKey = []byte("\n  \"data\": ")

// dataOf returns the top-level "data" value of an indented Answer body:
// the encoder writes it last, at two spaces of indentation.
func dataOf(body []byte) []byte {
	i := bytes.LastIndex(body, dataKey)
	if i < 0 {
		return nil
	}
	return bytes.TrimSuffix(body[i+len(dataKey):], []byte("\n}\n"))
}

// do issues one request and fills s; t0 is the instant latency counts
// from (the due time in an open loop).
func (c *client) do(ctx context.Context, path string, t0 time.Time) sample {
	s := sample{path: path, tier: -1}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		s.latency = time.Since(t0)
		return s
	}
	var sp span
	tracing := c.tr.enabled()
	if tracing {
		sp = span{ID: c.tr.newID(), Name: spanClient, Start: c.tr.since(time.Now())}
		req.Header.Set(reqHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		s.latency = time.Since(t0)
		return s
	}
	buf := c.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	end := time.Now()
	s.latency = end.Sub(t0)
	if tracing {
		sp.End = c.tr.since(end)
		c.tr.add(sp)
	}
	if err != nil {
		c.bufs.Put(buf)
		return s
	}
	s.status = resp.StatusCode
	s.tier = tierIndex(resp.Header.Get("X-Comm-Tier"))
	s.bytes = buf.Len()
	if s.status == http.StatusOK {
		s.hash = c.hashData(buf.Bytes())
		if c.parse && s.tier > 0 {
			s.prov = parseProvenance(buf.Bytes())
		}
	}
	c.bufs.Put(buf)
	return s
}

// hashData hashes an answer body's data field; answers are compared by
// this hash.
func (c *client) hashData(body []byte) uint64 { return maphash.Bytes(c.seed, dataOf(body)) }

// source yields the run's request paths in one seeded order, whichever
// worker asks next.
type source struct {
	mu   sync.Mutex
	next func() string
}

func (s *source) pick() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// closedLoop runs workers clients back to back for d and returns every
// request issued; the last ones finish after d and are not marked
// inside.
func closedLoop(ctx context.Context, c *client, src *source, workers int, d time.Duration) []sample {
	deadline := time.Now().Add(d)
	out := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				s := c.do(ctx, src.pick(), time.Now())
				s.inside = !time.Now().After(deadline)
				out[w] = append(out[w], s)
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// segment is one closed-loop stretch of a run: its samples and length.
type segment struct {
	from, to int // index range in the run's samples
	d        time.Duration
}

// pooledThroughput is the successful answers of all segs per second of
// their summed lengths: answers that finished inside a segment with
// status 200 and were not marked wrong.
func pooledThroughput(ss []sample, segs []segment) float64 {
	n := 0
	var d time.Duration
	for _, g := range segs {
		for _, s := range ss[g.from:g.to] {
			if s.inside && s.ok() {
				n++
			}
		}
		d += g.d
	}
	return float64(n) / d.Seconds()
}

// clock is the time source of the open-loop generator; tests inject a
// fake one to check lateness accounting.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// timerSlack is how late a Go timer can fire on Linux: the runtime
// waits in epoll with millisecond resolution.
const timerSlack = 1500 * time.Microsecond

// SleepUntil sleeps on a timer until timerSlack before t and yields the
// processor from there on, so sends leave on time instead of up to a
// millisecond late. The yielding costs at most timerSlack of CPU per
// send, at open-loop rates of a few hundred per second.
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// poissonSchedule draws exponential gaps at rate per second and returns
// the absolute send offsets that fall inside d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// openStats describes the generator itself, not the system.
type openStats struct {
	late        []time.Duration // send instant minus due time, per request
	maxInflight int64
}

// openLoop fires fire(i, due) at start+sched[i] for every i, on its own
// goroutine, whatever earlier requests are doing. Due times come from
// the schedule, never from the previous send, so a stalled generator
// sends late (and records it) instead of silently offering less load.
func openLoop(clk clock, sched []time.Duration, fire func(i int, due time.Time)) openStats {
	st := openStats{late: make([]time.Duration, len(sched))}
	var inflight atomic.Int64
	var peak atomic.Int64
	var wg sync.WaitGroup
	start := clk.Now()
	for i, off := range sched {
		due := start.Add(off)
		clk.SleepUntil(due)
		st.late[i] = max(0, clk.Now().Sub(due))
		wg.Add(1)
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			fire(i, due)
		}(i, due)
	}
	wg.Wait()
	st.maxInflight = peak.Load()
	return st
}

// openRun drives an open loop of paths from src at rate for d and
// returns the samples in schedule order.
func openRun(ctx context.Context, c *client, src *source, rng *rand.Rand, rate float64, d time.Duration) ([]sample, openStats) {
	sched := poissonSchedule(rng, rate, d)
	paths := make([]string, len(sched))
	for i := range paths {
		paths[i] = src.pick()
	}
	out := make([]sample, len(sched))
	st := openLoop(wallClock{}, sched, func(i int, due time.Time) {
		out[i] = c.do(ctx, paths[i], due)
	})
	return out, st
}

// get fetches one path and returns status and body, for set-up and
// checks outside the timed window.
func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read %s: %w", path, err)
	}
	return resp.StatusCode, body, nil
}
