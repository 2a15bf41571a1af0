// Command e2ebench is the repository's end-to-end benchmark. It builds
// a route-collector store from a seed, serves it through the public
// serve, evstore and ingest APIs on loopback listeners, drives one
// named workload against it from the same process, checks every answer
// it can against a fresh single-node server, and prints each metric by
// name and unit, ending with one JSON line.
//
//	go run . --workload hot-dashboard --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, and the
// spans are written to the work directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() { os.Exit(mainCode()) }

func mainCode() int {
	o := options{}
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the store contents and the query sequence")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/e2ebench", "directory for the run's stores and span files")
	flag.Parse()
	o.seconds = time.Duration(*seconds * float64(time.Second))
	o.trace = *trace == 1
	o.setups = setupsPerRun
	if o.workload == "" || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload NAME, --seconds > 0, --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := runBenchmark(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		path := filepath.Join(o.workdir, "spans-"+o.workload+".json")
		if err := res.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: write spans: %v\n", err)
			return 1
		}
		fmt.Printf("note spans_file %s\n", path)
	}
	for _, name := range res.notes.order {
		m := res.notes.m[name]
		fmt.Printf("note %s %s %s\n", name, formatValue(m.Value), m.Unit)
	}
	for _, p := range res.problems {
		fmt.Printf("problem %s\n", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metric{}}
	for _, name := range res.metrics.order {
		m := res.metrics.m[name]
		fmt.Printf("metric %s %s %s\n", name, formatValue(m.Value), m.Unit)
		out.Metrics[name] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func formatValue(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
