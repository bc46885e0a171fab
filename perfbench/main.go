// Command perfbench is the repository's benchmark. It runs one of four
// workloads against the real proxy, cluster and rivertrail code in one
// process, checks every output against an oracle, and prints the
// metrics by name with their units:
//
//   - hot-fleet: a 2-node fleet serving a prewarmed hot set, so every
//     rewrite is a cache hit and about half the requests take the peer
//     hop.
//   - cold-pages: one node, every request a distinct script, so every
//     request runs the four pipeline stages.
//   - interactive-under-batch: one node, open-loop interactive GETs
//     while a second connection POSTs prewarm batches.
//   - parallel-array: River Trail mapPar and pipePar operations at two
//     workers, with the proxy idle.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-pages --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics: CPU per
// operation, median latency, the resident set retained after the
// window, and set-up time (the median of five set-ups). With --trace 1 the window is split into an untraced
// quarter, a traced half and an untraced quarter, and the run reports
// the per-layer metrics from spans recorded around the program's public
// seams, plus single-layer replays, and the tracing overhead. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricSpec{
	{"cpu_ms_per_op", "ms"},
	{"latency_p50_ms", "ms"},
	{"retained_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports. A layer a workload
// bypasses reports 0.
var perLayer = []metricSpec{
	{"client.ops_per_s", "1/s"},
	{"client.latency_tail_ms", "ms"},
	{"client.tail_pct", "%"},
	{"client.samples", "count"},
	{"client.gen_lag_tail_ms", "ms"},
	{"host.steal_frac", "frac"},
	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
	{"gc.cpu_frac", "frac"},
	{"gc.allocs_per_op", "count"},
	{"mem.peak_rss_mb", "MB"},
	{"trace.overhead_frac", "frac"},
	{"proxy.self_us_p50", "us"},
	{"proxy.self_us_tail", "us"},
	{"proxy.share.self", "frac"},
	{"proxy.share.origin", "frac"},
	{"proxy.share.peer", "frac"},
	{"proxy.share.queue", "frac"},
	{"proxy.share.parse_encode", "frac"},
	{"proxy.share.decode_transform", "frac"},
	{"origin.fetch_us_p50", "us"},
	{"origin.fetch_us_tail", "us"},
	{"origin.mb_per_s", "MB/s"},
	{"cache.hit_ratio", "frac"},
	{"cache.coalesced", "count"},
	{"cache.evictions", "count"},
	{"cache.hit_ns_p50", "ns"},
	{"key.sha256_mb_per_s", "MB/s"},
	{"queue.wait_us_p50.interactive", "us"},
	{"queue.wait_us_tail.interactive", "us"},
	{"queue.wait_us_p50.batch", "us"},
	{"queue.wait_us_tail.batch", "us"},
	{"queue.rejected", "count"},
	{"queue.shed", "count"},
	{"queue.promoted", "count"},
	{"pipeline.rewrites", "count"},
	{"pipeline.rewrite_ms_p50", "ms"},
	{"pipeline.rewrite_ms_tail", "ms"},
	{"pipeline.stage_us_mean.decode", "us"},
	{"pipeline.stage_us_mean.parse", "us"},
	{"pipeline.stage_us_mean.rewrite", "us"},
	{"pipeline.stage_us_mean.encode", "us"},
	{"pipeline.hop_us_mean", "us"},
	{"lex.mb_per_s.small", "MB/s"},
	{"lex.mb_per_s.large", "MB/s"},
	{"lex.allocs_per_kb", "count"},
	{"parse.mb_per_s.small", "MB/s"},
	{"parse.mb_per_s.large", "MB/s"},
	{"parse.allocs_per_kb", "count"},
	{"transform.mb_per_s", "MB/s"},
	{"encode.mb_per_s.small", "MB/s"},
	{"encode.mb_per_s.large", "MB/s"},
	{"encode.allocs_per_kb", "count"},
	{"peer.forward_us_p50", "us"},
	{"peer.forward_us_tail", "us"},
	{"peer.forwarded_frac", "frac"},
	{"peer.retries", "count"},
	{"peer.fallbacks", "count"},
	{"pa.parallel_frac", "frac"},
	{"pa.profiled_frac", "frac"},
	{"pa.misspeculated", "count"},
	{"pa.chunks_per_op", "count"},
	{"pa.steals_per_op", "count"},
	{"pa.pipe_stalls_per_op", "count"},
	{"pa.seq_ms_p50", "ms"},
	{"pa.loop_ms_p50", "ms"},
	{"pa.speedup_vs_loop", "x"},
	{"parallel.map_overhead_frac", "frac"},
	{"sched.run_us_per_chunk", "us"},
	{"capture.print_us", "us"},
}

// metrics holds reported values by name.
type metrics map[string]float64

// window is what one timed window measured.
type window struct {
	probe *probe
	// ops counts completed operations (the CPU-per-op denominator);
	// attempted and failed count every operation tried and every one
	// refused, errored or wrong.
	ops, attempted, failed int64
	// mismatched counts outputs that differ from their oracle.
	mismatched int64
	// lat is per-operation latency and lag the open-loop sender's
	// lateness, in milliseconds.
	lat, lag []float64
	// retained is the resident set after a full GC at the window's end.
	retained int64
	// spans is the traced window's nested spans.
	spans []span
	// state is the workload's own record of the window.
	state any
}

// workload is one prepared benchmark workload.
type workload interface {
	// run drives one timed window of length d; tr is nil when untraced.
	run(d time.Duration, tr *tracer) (*window, error)
	// verify checks the window's outputs against their oracles. It runs
	// after the window, outside the timing.
	verify(w *window) error
	// layers sets the per-layer metrics of a traced window.
	layers(w *window, m metrics) error
	close()
}

// setups builds each workload from the seed.
var setups = map[string]func(seed int64, traced bool) (workload, error){
	"hot-fleet":               setupHotFleet,
	"cold-pages":              setupColdPages,
	"interactive-under-batch": setupInteractiveUnderBatch,
	"parallel-array":          setupParallelArray,
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 5

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := setups[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (hot-fleet, cold-pages, interactive-under-batch, parallel-array), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	res, err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// reported is one metric in the result line.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// bench sets the workload up, runs its window(s), verifies the outputs
// and collects the metrics.
func bench(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	goldenBad, err := checkGolden()
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	var wl workload
	var setupTimes []float64
	for i := 0; i < reps; i++ {
		if wl != nil {
			// One set-up in memory at a time.
			wl.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		wl, err = setups[name](seed, traced)
		if err != nil {
			return nil, fmt.Errorf("setup %s: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer wl.close()

	var windows []*window
	measure := func(d time.Duration, tr *tracer) (*window, error) {
		runtime.GC()
		p := startProbe()
		w, err := wl.run(d, tr)
		if err != nil {
			return nil, err
		}
		p.stop()
		w.probe = p
		if w.retained = retainedRSS(); w.retained == 0 {
			return nil, errors.New("cannot read the resident set from /proc/self/statm")
		}
		if err := wl.verify(w); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		if w.ops == 0 {
			return nil, errors.New("no operation completed in the window")
		}
		windows = append(windows, w)
		return w, nil
	}

	m := metrics{}
	specs := endToEnd
	if !traced {
		w, err := measure(d, nil)
		if err != nil {
			return nil, err
		}
		m["cpu_ms_per_op"] = cpuMsPerOp(w)
		m["latency_p50_ms"] = percentile(w.lat, 50)
		m["retained_rss_mb"] = float64(w.retained) / (1 << 20)
		m["setup_s"] = percentile(setupTimes, 50)
	} else {
		specs = perLayer
		// Untraced, traced, untraced: the traced half sits between two
		// untraced quarters, so warm-up drift cancels out of the overhead.
		before, err := measure(d/4, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		w, err := measure(d/2, tr)
		if err != nil {
			return nil, err
		}
		after, err := measure(d-d/4-d/2, nil)
		if err != nil {
			return nil, err
		}
		w.spans = nest(tr.collected())
		contextMetrics(after, m)
		plain := float64(before.probe.cpu+after.probe.cpu) / float64(time.Millisecond) / float64(before.ops+after.ops)
		m["trace.overhead_frac"] = cpuMsPerOp(w)/plain - 1
		if err := wl.layers(w, m); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}

	res := &result{Correct: goldenBad == 0, Metrics: map[string]reported{}}
	for _, w := range windows {
		res.Attempted += w.attempted
		res.Failed += w.failed
		if w.mismatched > 0 {
			res.Correct = false
		}
		fmt.Printf("window: %.2fs ops=%d attempted=%d failed=%d mismatched=%d steal=%.4f\n",
			w.probe.wall.Seconds(), w.ops, w.attempted, w.failed, w.mismatched, w.probe.steal)
	}
	fmt.Printf("host: %s nproc=%d gomaxprocs=%d\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, s := range specs {
		v := m[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.name] = reported{v, s.unit}
		delete(m, s.name)
	}
	if len(m) > 0 {
		var extra []string
		for k := range m {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics set but not declared: %v", extra)
	}
	return res, nil
}

func cpuMsPerOp(w *window) float64 {
	return float64(w.probe.cpu) / float64(time.Millisecond) / float64(w.ops)
}

// contextMetrics sets the client, host and GC metrics from an untraced
// window.
func contextMetrics(w *window, m metrics) {
	m["client.ops_per_s"] = float64(w.ops) / w.probe.wall.Seconds()
	m["client.latency_tail_ms"] = tail(w.lat)
	m["client.tail_pct"] = tailPercentile(len(w.lat))
	m["client.samples"] = float64(len(w.lat))
	m["client.gen_lag_tail_ms"] = tail(w.lag)
	m["host.steal_frac"] = w.probe.steal
	m["host.nproc"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["gc.cpu_frac"] = w.probe.gcCPUFrac
	m["gc.allocs_per_op"] = float64(w.probe.heapAllocs) / float64(w.ops)
	m["mem.peak_rss_mb"] = float64(w.probe.maxRSS) / (1 << 20)
}
