package main

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/ingest"
	"repro/internal/serve"
)

// The wrappers below time calls into the system's public interfaces
// from outside: an http.Handler, a serve.Backend, and an ingest.Feed.
// While the tracer is off they only pass calls through.

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// callRec keeps one wrapped boundary's per-call timings and sizes.
type callRec struct {
	mu    sync.Mutex
	durs  []float64 // ms
	bytes []float64
}

func (r *callRec) add(d time.Duration, n int) {
	r.mu.Lock()
	r.durs = append(r.durs, ms(d))
	r.bytes = append(r.bytes, float64(n))
	r.mu.Unlock()
}

func (r *callRec) snapshot() (durs, bytes []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.durs...), append([]float64(nil), r.bytes...)
}

// handlerWrap times an http.Handler. The front server's wrapper joins
// its span to the client's through reqHeader; a shard's wrapper, whose
// caller is a RemoteBackend that sets no header, records a join key
// (shard + request body hash) instead.
type handlerWrap struct {
	next  http.Handler
	tr    *tracer
	name  string
	shard int // -1 on the front server
	rec   callRec
}

func (h *handlerWrap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.enabled() {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := span{ID: h.tr.newID(), Name: h.name}
	if h.shard >= 0 {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		sp.Join = joinKey(h.shard, body)
	} else if id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64); err == nil {
		sp.Parent = id
	}
	r = r.WithContext(withSpan(r.Context(), sp.ID))
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	end := time.Now()
	sp.Start, sp.End = h.tr.since(start), h.tr.since(end)
	h.tr.add(sp)
	h.rec.add(end.Sub(start), cw.n)
}

// joinKey names one shard state request by its encoded spec.
func joinKey(shard int, body []byte) string {
	f := fnv.New64a()
	f.Write(body)
	return fmt.Sprintf("%d/%x", shard, f.Sum64())
}

// backendWrap times a serve.Backend's State calls. It counts calls that
// returned an envelope it had already seen: a backend's envelope cache
// and singleflight hand out the same pointer again, so pointer identity
// tells a reused answer from a computed one without looking inside.
type backendWrap struct {
	inner serve.Backend
	tr    *tracer
	name  string
	shard int // >= 0 for a coordinator's remote shard

	rec  callRec
	mu   sync.Mutex
	seen *pointerLRU
	hits int
	// group ties a remote shard's calls to their parent span, so a
	// coordinator's fan-out can be grouped per query (slowest vs median
	// shard).
	group map[uint64][]float64
}

func newBackendWrap(inner serve.Backend, tr *tracer, name string, shard int) *backendWrap {
	return &backendWrap{inner: inner, tr: tr, name: name, shard: shard,
		seen: newPointerLRU(seenEnvelopes), group: map[uint64][]float64{}}
}

func (b *backendWrap) Name() string { return b.inner.Name() }

func (b *backendWrap) State(ctx context.Context, spec serve.QuerySpec) (*serve.StateEnvelope, error) {
	if !b.tr.enabled() {
		return b.inner.State(ctx, spec)
	}
	sp := span{ID: b.tr.newID(), Parent: spanFrom(ctx), Name: b.name}
	if b.shard >= 0 {
		sp.Join = joinKey(b.shard, serve.AppendQuerySpec(nil, spec))
	}
	start := time.Now()
	env, err := b.inner.State(withSpan(ctx, sp.ID), spec)
	end := time.Now()
	sp.Start, sp.End = b.tr.since(start), b.tr.since(end)
	b.tr.add(sp)
	b.rec.add(end.Sub(start), 0)
	b.mu.Lock()
	if env != nil && b.seen.touch(env) {
		b.hits++
	}
	if b.shard >= 0 {
		b.group[sp.Parent] = append(b.group[sp.Parent], ms(end.Sub(start)))
	}
	b.mu.Unlock()
	return env, err
}

// seenEnvelopes bounds a backendWrap's identity set at twice the
// backend's default envelope LRU (256 entries), so every envelope the
// cache can still hand out is remembered while evicted ones are let go.
const seenEnvelopes = 512

// pointerLRU is a set of the most recently touched envelopes.
type pointerLRU struct {
	max   int
	ll    *list.List
	items map[*serve.StateEnvelope]*list.Element
}

func newPointerLRU(max int) *pointerLRU {
	return &pointerLRU{max: max, ll: list.New(), items: map[*serve.StateEnvelope]*list.Element{}}
}

// touch marks env most recent and reports whether it was in the set.
func (l *pointerLRU) touch(env *serve.StateEnvelope) bool {
	if el, ok := l.items[env]; ok {
		l.ll.MoveToFront(el)
		return true
	}
	l.items[env] = l.ll.PushFront(env)
	if l.ll.Len() > l.max {
		old := l.ll.Remove(l.ll.Back()).(*serve.StateEnvelope)
		delete(l.items, old)
	}
	return false
}

func (b *backendWrap) Refresh(ctx context.Context) (serve.RefreshStats, error) {
	return b.inner.Refresh(ctx)
}

func (b *backendWrap) Watch(ctx context.Context, interval time.Duration, onChange func(serve.RefreshStats, error)) error {
	return b.inner.Watch(ctx, interval, onChange)
}

func (b *backendWrap) Health(ctx context.Context) (serve.BackendHealth, error) {
	return b.inner.Health(ctx)
}

func (b *backendWrap) hitCount() (hits, calls int) {
	durs, _ := b.rec.snapshot()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits, len(durs)
}

// feedWrap wraps an ingest.Feed's emit callback: it stamps each
// event's emit instant (freshness is measured from it) and times how
// long the plane blocked the producer.
type feedWrap struct {
	inner ingest.Feed
	tr    *tracer

	mu      sync.Mutex
	emitted []time.Time // emit instant of each accepted event, in order
	blocked []float64   // ms per emit call
}

func (f *feedWrap) Name() string { return f.inner.Name() }

func (f *feedWrap) Run(ctx context.Context, emit func(classify.Event) error) error {
	return f.inner.Run(ctx, func(e classify.Event) error {
		start := time.Now()
		err := emit(e)
		end := time.Now()
		f.mu.Lock()
		if err == nil {
			f.emitted = append(f.emitted, start)
		}
		f.blocked = append(f.blocked, ms(end.Sub(start)))
		f.mu.Unlock()
		if f.tr.enabled() {
			f.tr.add(span{ID: f.tr.newID(), Name: spanEmit, Start: f.tr.since(start), End: f.tr.since(end)})
		}
		return err
	})
}

// emits returns the emit instants recorded so far.
func (f *feedWrap) emits() []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.emitted...)
}
