// Command perfbench is the end-to-end benchmark of the NOUS reproduction.
//
// Every workload stands up the same installation — a durable leader serving
// internal/server over loopback HTTP, with an in-process replica following
// it — and then drives one kind of load against it:
//
//	construct  articles integrated as fast as IngestAll takes them
//	live       an open-loop article feed beside HTTP questions to both nodes
//
// It checks the answers against computations made apart from the program
// and prints one JSON line: correct, attempted, failed and the metrics.
// With -trace 1 it also replays the workload's own inputs through each
// layer's exported entry points and reports per-layer metrics instead of the
// end-to-end ones. See README.md for the metric definitions.
//
//	perfbench --workload live --seed 3 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	dir      string // scratch space for data directories, removed at exit

	mu                sync.Mutex // guards the three fields below
	attempted, failed int
	problems          []string // failed correctness checks

	e2e   map[string]metric
	layer map[string]metric
	spans *spans // nil unless traced
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// count adds operations attempted and failed.
func (r *run) count(attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
}

// fail records a failed correctness check; the run then reports
// correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "check failed:", msg)
}

// check records err as a failed correctness check when it is non-nil.
func (r *run) check(what string, err error) {
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: construct or live")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	flag.Parse()

	body, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload construct|live --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		must(err)
		must(pprof.StartCPUProfile(f))
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	dir, err := filepath.Abs(filepath.Join(".bench_run", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	must(err)
	must(os.MkdirAll(dir, 0o755))
	defer os.RemoveAll(dir)

	began := time.Now()
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if r.traced {
		r.spans = newSpans()
	}
	body(r)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		must(err)
		runtime.GC()
		must(pprof.WriteHeapProfile(f))
		f.Close()
	}

	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if r.traced {
		// The traced run's end-to-end figures carry the tracing overhead;
		// they go to stderr so the overhead can be read off a pair of runs.
		logMetrics("traced end-to-end", r.e2e)
		out.Metrics = r.layer
	}
	fmt.Fprintf(os.Stderr, "%s run took %.1f s\n", r.workload, time.Since(began).Seconds())
	line, err := json.Marshal(out)
	must(err)
	fmt.Println(string(line))
}

// logMetrics writes metrics to stderr in name order.
func logMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %12.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// must aborts the run on a set-up error: the benchmark prints no result
// and exits non-zero.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// micros converts a duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
