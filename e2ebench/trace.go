package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per boundary the benchmark wraps.
const (
	spanClient       = "client"
	spanHandler      = "handler"
	spanBackend      = "backend"
	spanRemote       = "remote"
	spanShardHandler = "shard_handler"
	spanShardBackend = "shard_backend"
	spanEmit         = "ingest_emit"
	spanRefresh      = "refresh"
)

// span is one timed call at a wrapped boundary. Times are nanoseconds
// since the tracer's epoch. Parent is 0 for a root; Join, when set,
// lets a span whose parent could not be passed in-process (a shard's
// handler, reached over HTTP) be attached to its caller afterwards.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Join   string `json:"join,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while on. Recording is off by default,
// so untraced runs pay one atomic load per wrapped call.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t.on.Load() }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of every recorded span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the recorded spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type spanKey struct{}

// withSpan carries the current span id to the callee; the singleflight
// leader's context is the one that reaches the backend.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// selfTime is a span's duration minus the part of it covered by its
// children, overlapping children counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// spanTree indexes spans by parent after join keys are resolved.
type spanTree struct {
	byID     map[uint64]span
	children map[uint64][]span
}

// buildTree links every span to its parent. A span with a Join key and
// no parent is attached to the span of a different name carrying the
// same key whose interval contains it (the caller of an HTTP hop).
func buildTree(spans []span) *spanTree {
	t := &spanTree{byID: make(map[uint64]span, len(spans)), children: make(map[uint64][]span)}
	callers := map[string][]span{}
	for _, s := range spans {
		if s.Join != "" && s.Parent != 0 {
			callers[s.Join] = append(callers[s.Join], s)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 && s.Join != "" {
			for _, c := range callers[s.Join] {
				if c.Start <= s.Start && s.End <= c.End {
					s.Parent = c.ID
					break
				}
			}
		}
		t.byID[s.ID] = s
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// ledger is the per-request blocking-path breakdown of traced client
// spans: at each span the path follows the child that ended last (the
// one the parent waited for), and each span on the path is charged its
// duration minus that child's. The root's share is the time no wrapped
// layer explains.
type ledger struct {
	Requests    int
	ClientMean  float64            // ms
	Layers      map[string]float64 // mean path ms per span name
	Unexplained float64            // mean ms
	SelfP50     map[string]float64 // p50 self time per span name, ms
}

func (t *spanTree) ledger() ledger {
	l := ledger{Layers: map[string]float64{}, SelfP50: map[string]float64{}}
	selfs := map[string][]float64{}
	for _, s := range t.byID {
		selfs[s.Name] = append(selfs[s.Name], ms(time.Duration(selfTime(s, t.children[s.ID]))))
	}
	for name, xs := range selfs {
		l.SelfP50[name] = percentile(xs, 0.5)
	}
	var clientSum, unexplained float64
	sums := map[string]float64{}
	for _, s := range t.byID {
		if s.Name != spanClient {
			continue
		}
		l.Requests++
		clientSum += float64(s.dur())
		cur := s
		for {
			kids := t.children[cur.ID]
			if len(kids) == 0 {
				if cur.ID != s.ID {
					sums[cur.Name] += float64(cur.dur())
				}
				break
			}
			last := kids[0]
			for _, k := range kids[1:] {
				if k.End > last.End {
					last = k
				}
			}
			share := float64(cur.dur() - last.dur())
			if cur.ID == s.ID {
				unexplained += share
			} else {
				sums[cur.Name] += share
			}
			cur = last
		}
	}
	if l.Requests == 0 {
		return l
	}
	n := float64(l.Requests) * float64(time.Millisecond)
	l.ClientMean = clientSum / n
	l.Unexplained = unexplained / n
	for name, v := range sums {
		l.Layers[name] = v / n
	}
	return l
}
