package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/beacon"
	"repro/internal/loadgen"
)

// workloadDef is one named traffic mix and the system it runs against.
type workloadDef struct {
	name string
	// hotShare is the share of requests drawn from the dashboard mix;
	// the rest are never-repeated exploration specs.
	hotShare    float64
	coordinator bool
	churn       bool
	// rate is the open loop's offered rate, requests per second.
	rate float64
}

// churnRate is churn-dashboard's live ingest rate, events per second.
const churnRate = 500

// The open-loop rates. 100 req/s keeps churn-dashboard, the slowest
// workload, well under its capacity on two CPUs, and hot-dashboard
// shares its rate; at 100 req/s a 15 s run sends about 1,500 requests,
// so the 99th percentile has more than ten samples beyond it.
// coordinator-4shard runs at twice that: a fifth of its requests are
// exploration specs whose fan-outs vary widely in cost, and its
// capacity, over 1,000 req/s on two CPUs, leaves room for the extra
// load.
var workloads = []workloadDef{
	{name: "hot-dashboard", hotShare: 1, rate: 100},
	{name: "cold-explore", hotShare: 0, rate: 100},
	{name: "churn-dashboard", hotShare: 1, churn: true, rate: 100},
	{name: "coordinator-4shard", hotShare: 0.8, coordinator: true, rate: 200},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// dashboardMix is loadgen.DefaultMix over the full store profile: every
// collector, a seeded handful of peer ASes, and the figure-3 route the
// server's sidecar registry indexes.
func dashboardMix(p profile, rng *rand.Rand) []loadgen.Query {
	as := append([]uint32(nil), p.peerAS...)
	rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
	return loadgen.DefaultMix(loadgen.StoreProfile{
		Day:              benchDay,
		Collectors:       p.collectors,
		PeerAS:           as[:min(4, len(as))],
		Figure3Collector: "rrc00",
		Figure3Prefix:    beacon.PrefixN(0).String(),
	})
}

// mixPicker draws paths from a weighted mix.
type mixPicker struct {
	mix   []loadgen.Query
	total int
}

func newMixPicker(mix []loadgen.Query) *mixPicker {
	p := &mixPicker{mix: mix}
	for _, q := range mix {
		p.total += q.Weight
	}
	return p
}

func (p *mixPicker) next(rng *rand.Rand) string {
	n := rng.Intn(p.total)
	for _, q := range p.mix {
		if n < q.Weight {
			return q.Path(rng)
		}
		n -= q.Weight
	}
	panic("unreachable: weights sum to total")
}

// distinctPaths enumerates every path the mix can produce by drawing
// far more often than its key space is large.
func (p *mixPicker) distinctPaths(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	for i := 0; i < 20000; i++ {
		seen[p.next(rng)] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// explorer draws never-repeated exploration specs: a random kind over
// minute-aligned sub-day windows of a random 1–3-collector subset, a
// fifth of them filtered to a random peer AS (a cold scan).
type explorer struct {
	p    profile
	seen map[string]bool
}

var exploreKinds = []string{"/v1/table2", "/v1/table1", "/v1/infer/peers"}

func (e *explorer) next(rng *rand.Rand) string {
	for {
		path := e.draw(rng)
		if !e.seen[path] {
			e.seen[path] = true
			return path
		}
	}
}

func (e *explorer) draw(rng *rand.Rand) string {
	iso := func(t time.Time) string { return url.QueryEscape(t.Format(time.RFC3339)) }
	const day = 24 * 60
	fromMin := rng.Intn(day - 30)
	toMin := fromMin + 30 + rng.Intn(day-fromMin-30+1)
	from := benchDay.Add(time.Duration(fromMin) * time.Minute)
	to := benchDay.Add(time.Duration(toMin) * time.Minute)
	n := 1 + rng.Intn(3)
	perm := rng.Perm(len(e.p.collectors))[:n]
	sort.Ints(perm)
	cs := make([]string, n)
	for i, j := range perm {
		cs[i] = e.p.collectors[j]
	}
	path := fmt.Sprintf("%s?from=%s&to=%s&collectors=%s", exploreKinds[rng.Intn(len(exploreKinds))],
		iso(from), iso(to), url.QueryEscape(strings.Join(cs, ",")))
	if rng.Intn(5) == 0 {
		path += fmt.Sprintf("&peeras=%d", e.p.peerAS[rng.Intn(len(e.p.peerAS))])
	}
	return path
}

// traffic is a workload's request stream for one run.
type traffic struct {
	hot     *mixPicker
	hotKeys []string // every dashboard path, sorted
	isHot   map[string]bool
	explore *explorer
	share   float64
	rng     *rand.Rand
}

func newTraffic(w workloadDef, p profile, seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{
		hot:     newMixPicker(dashboardMix(p, rng)),
		explore: &explorer{p: p, seen: map[string]bool{}},
		share:   w.hotShare,
		rng:     rng,
		isHot:   map[string]bool{},
	}
	if w.hotShare > 0 {
		t.hotKeys = t.hot.distinctPaths(seed + 1)
		for _, k := range t.hotKeys {
			t.isHot[k] = true
		}
	}
	return t
}

func (t *traffic) next() string {
	if t.share >= 1 || (t.share > 0 && t.rng.Float64() < t.share) {
		return t.hot.next(t.rng)
	}
	return t.explore.next(t.rng)
}
