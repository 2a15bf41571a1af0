// Package repro reproduces "Keep your Communities Clean: Exploring the
// Routing Message Impact of BGP Communities" (Krenc, Beverly, Smaragdakis —
// CoNEXT 2020) as a Go library: a BGP-4 wire codec, an MRT archive codec,
// a vendor-faithful BGP speaker simulator, the paper's lab experiments,
// synthetic collector workloads, a scenario-sweep engine that runs whole
// matrices of simulated collector days in parallel (internal/simnet over
// internal/topo's line/star/lab/Internet shapes), a columnar event store
// for ingest-once/analyze-many measurement (internal/evstore), and a
// mergeable-analyzer engine behind every table and figure: each analysis
// is an accumulator (Observe/Merge/Finish/Fresh plus Snapshot/Restore
// codecs), so N questions run in one classification pass
// (analysis.RunAll), shard-parallel over a store's collectors
// (evstore.ScanParallel), or incrementally from persisted per-partition
// snapshot sidecars — the serving layer (internal/serve, cmd/commservd)
// keeps those snapshots warm as live ingest seals partitions and answers
// windowed HTTP queries by merging precomputed states, scanning only the
// partitions a window cuts through, behind an LRU result cache with
// singleflight dedup. All paths produce results bit-identical to the
// sequential pass. The daemons are production-observable: internal/obs
// is a dependency-free metrics registry (atomic counters, gauges,
// histograms; Prometheus text exposition on GET /metrics) plus
// structured-log setup, internal/serve and internal/ingest instrument
// their existing stats through it, /readyz answers readiness distinct
// from liveness, admission control sheds overload per client, and
// cmd/commload drives closed/open-loop query mixes against a running
// daemon and gates latency percentiles against SLOs (committed report:
// BENCH_10_LOAD.json). See README.md for the layout and EXPERIMENTS.md
// for paper-versus-measured results; bench_test.go regenerates each
// table and figure.
package repro
