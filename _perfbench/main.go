// Command epocbench is the EPOC compiler's end-to-end benchmark. It
// runs one named workload from a seed, checks every compiled output
// against an independent reference, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	bash _perfbench/run.sh --workload cold_full --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end set, measured with
// every instrument off. With --trace 1 the same workload runs twice,
// untraced then traced, and the metrics are the per-layer split:
// harness spans around each call into a layer, the pipeline's own
// stage timers and counters (core.Options.Obs, the serve response
// envelope), a CPU profile, and Go runtime statistics. Traced runs
// also write their spans, profile and layer table to .bench_out/.
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one pass of a workload's timed part produced.
// Wall and CPU cover only the timed operations; output checks run
// after them.
type passResult struct {
	Wall      time.Duration
	CPU       float64   // process CPU seconds (cpuSeconds) over the pass
	OpsMS     []float64 // per-operation process CPU time, ms
	Attempted int
	Failures  []string
	LatencyNS float64 // Σ schedule latency over the pass's compiles
	FidMin    float64 // minimum ESP fidelity over the pass's compiles
}

// workload is one benchmark scenario. setup builds everything passes
// 0..n-1 of the timed part need and may be called several times (each
// call replaces the previous state); pass runs pass p, recording into
// tc when the run is traced (tc nil otherwise). A pass's inputs follow
// from the seed and the pass number. passSeconds is a pass's nominal
// duration on the reference machine, which turns --seconds into a
// pass count.
type workload interface {
	setupReps() int
	passSeconds() float64
	setup(ctx context.Context, n int, tc *traceCtx) error
	pass(ctx context.Context, p int, tc *traceCtx) (passResult, error)
	close()
}

func newWorkload(name string, seed int64, work string) (workload, error) {
	switch name {
	case "cold_full":
		return newColdFull(seed), nil
	case "estimate_synth":
		return newEstimateSynth(seed), nil
	case "serve_warm":
		return newServeWarm(seed, work), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold_full, estimate_synth or serve_warm)", name)
}

func main() {
	name := flag.String("workload", "", "workload: cold_full, estimate_synth or serve_warm")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "nominal measured time; sets the number of passes (see passCount)")
	traceFlag := flag.Int("trace", 0, "1 runs the traced split and reports per-layer metrics")
	flag.Parse()

	res, err := run(*name, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epocbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epocbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles the result line.
func run(name string, seed int64, seconds float64, traced bool) (*result, error) {
	runtime.GOMAXPROCS(2)
	ctx := context.Background()
	work, err := os.MkdirTemp(".", ".bench_work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	w, err := newWorkload(name, seed, work)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var tc *traceCtx
	if traced {
		tc = newTraceCtx()
	}
	passes := passCount(seconds, w.passSeconds())
	total := passes
	if traced {
		passes = max(1, passes/2)
		total = 2 * passes
	}
	// Set-up: repeated, the median of its CPU times reported, the last
	// state kept (and, in a traced run, the last one traced).
	var setups []float64
	for i := 0; i < w.setupReps(); i++ {
		var stc *traceCtx
		if i == w.setupReps()-1 {
			stc = tc
		}
		c0 := cpuSeconds()
		if err := w.setup(ctx, total, stc); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, cpuSeconds()-c0)
	}

	plain, err := timed(ctx, w, 0, passes, nil)
	if err != nil {
		return nil, err
	}
	var traceRes []passResult
	if traced {
		runtime.GC()
		traceRes, err = timed(ctx, w, len(plain), passes, tc)
		if err == nil {
			err = tc.finish()
		}
		if err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metric{}}
	var failures []string
	for _, p := range append(plain, traceRes...) {
		res.Attempted += p.Attempted
		failures = append(failures, p.Failures...)
	}
	res.Failed = len(failures)
	res.Correct = res.Failed == 0
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}

	// The tail is taken in each pass and the median reported: pooled
	// over the run, the slowest pass's operations would fill the top of
	// the distribution, so a pass slowed by the host would set it.
	var ops, walls, cpus, tails []float64
	var pct float64
	latency, fidMin := 0.0, 1.0
	for _, p := range plain {
		ops = append(ops, p.OpsMS...)
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, p.CPU)
		var t float64
		t, pct = tailPercentile(p.OpsMS)
		tails = append(tails, t)
		latency += p.LatencyNS
		fidMin = math.Min(fidMin, p.FidMin)
	}
	runCPU, tail := median(cpus), median(tails)
	fmt.Fprintf(os.Stderr, "%s seed=%d passes=%d ops=%d cpu_ms_p50=%.3f cpu_ms_tail=%.3f pass_p%.2f=%.3f run_cpu_s=%.4f pass_cpu_s=%.3f pass_wall_s=%.3f setup_s=%.4f\n",
		name, seed, len(plain), len(ops), median(ops), tail, pct, tails, runCPU, cpus, walls, setups)

	if !traced {
		set := func(k, unit string, v float64) { res.Metrics[k] = metric{Value: v, Unit: unit} }
		set("setup_s", "s", median(setups))
		set("run_cpu_s", "s", runCPU)
		set("compile_cpu_ms_p50", "ms", median(ops))
		set("compile_cpu_ms_tail", "ms", tail)
		set("schedule_latency_ns", "ns", latency)
		set("fidelity_min", "1", fidMin)
		set("success_ratio", "1", 1-float64(res.Failed)/float64(res.Attempted))
		set("peak_rss_mb", "MB", peakRSSMB())
		return res, nil
	}

	tw := make([]float64, len(traceRes))
	for i, p := range traceRes {
		tw[i] = p.Wall.Seconds()
	}
	res.Metrics = tc.layerMetrics(len(traceRes), median(walls), median(tw))
	dir := filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d", name, seed))
	if err := tc.writeArtifacts(dir, res.Metrics); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "traced artifacts in %s\n", dir)
	return res, nil
}

// passCount is how many passes a run of the given nominal length
// makes: seconds over the workload's nominal pass time, rounded, at
// least one. It depends only on the command line, so every machine and
// every version of the program times the same operations, and the tail
// is read at the same rank.
func passCount(seconds, passSeconds float64) int {
	return max(1, int(math.Round(seconds/passSeconds)))
}

// timed runs n passes numbered from first.
func timed(ctx context.Context, w workload, first, n int, tc *traceCtx) ([]passResult, error) {
	var out []passResult
	for p := first; p < first+n; p++ {
		r, err := w.pass(ctx, p, tc)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// cpuSeconds is the CPU time the process has used so far, user and
// system, over all its threads. Unlike wall-clock time it leaves out
// the time the hypervisor gave the machine's virtual CPUs to other
// guests (steal), which on a shared host is most of the noise.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// median returns the middle of xs (mean of the two middle values for
// an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank 90th percentile of xs, the
// smallest sample with at least 90% of the samples at or below it, and
// the percentile that sample sits at. With ten samples or fewer it is
// the maximum (percentile 100).
func tailPercentile(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	i := int(math.Ceil(0.9*float64(n))) - 1
	return s[i], 100 * float64(i+1) / float64(n)
}
