package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/evstore"
	"repro/internal/obs"
)

// series maps a sample line's name{labels} to its value.
type series map[string]float64

// parseExposition reads Prometheus text exposition samples.
func parseExposition(b []byte) series {
	out := series{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// scrape fetches and lints a server's /metrics.
func scrape(ctx context.Context, c *client) (series, error) {
	status, body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", status)
	}
	if err := obs.Lint(body); err != nil {
		return nil, fmt.Errorf("/metrics lint: %w", err)
	}
	return parseExposition(body), nil
}

// registryText renders and lints a registry not served over HTTP.
func registryText(reg *obs.Registry) (series, error) {
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		return nil, err
	}
	if err := obs.Lint(b.Bytes()); err != nil {
		return nil, fmt.Errorf("ingest metrics lint: %w", err)
	}
	return parseExposition(b.Bytes()), nil
}

// delta returns after−before for one series.
func delta(before, after series, name string) float64 { return after[name] - before[name] }

// histogramQuantile estimates a quantile of a histogram family (no
// labels) from its _bucket series.
func histogramQuantile(s series, family string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		f, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			f, err = math.Inf(1), nil
		}
		if err == nil {
			bs = append(bs, bucket{f, v})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	var uppers, cum []float64
	for _, b := range bs {
		if !math.IsInf(b.le, 1) {
			uppers = append(uppers, b.le)
		}
		cum = append(cum, b.cum)
	}
	if len(cum) != len(uppers)+1 {
		return 0
	}
	return histQuantile(uppers, cum, q)
}

// provenance is the part of an Answer body that says what computing it
// cost.
type provenance struct {
	Plan   evstore.PlanStats `json:"plan"`
	Scan   evstore.ScanStats `json:"scan"`
	Merges int               `json:"merges"`
}

func parseProvenance(body []byte) *provenance {
	var p provenance
	if json.Unmarshal(body, &p) != nil {
		return nil
	}
	return &p
}

// runtimeSample reads the Go runtime's own accounting.
type runtimeSample struct {
	gcCycles   uint64
	gcPauseCPU float64 // seconds of CPU with the world stopped for GC
	allocBytes uint64  // heap bytes allocated since the process started
	// Process CPU time from getrusage; the kernel leaves out time the
	// hypervisor gave to other guests (steal).
	rusageCPU time.Duration
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r runtimeSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		r.gcPauseCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ss[2].Value.Uint64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.rusageCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return r
}

// heapPeak samples live heap bytes until stopped and keeps the peak.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				h.peak = max(h.peak, s[0].Value.Uint64())
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in bytes.
func (h *heapPeak) finish() uint64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in insertion order for printing.
type report struct {
	order []string
	m     map[string]metric
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := r.m[name]; !ok {
		r.order = append(r.order, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}
