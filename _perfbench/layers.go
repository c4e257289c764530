package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"epoc/internal/core"
	"epoc/internal/obs"
	"epoc/internal/serve"
)

// traceCtx collects a traced run's per-layer evidence: harness spans,
// the pipeline's own obs recorder (passed as core.Options.Obs, or
// merged from each serve response's manifest), per-compile statistics,
// the store figures of set-up, and a CPU profile and Go runtime
// statistics of each traced pass's timed window. Every method is a no-op on a nil *traceCtx, which is
// what the untraced run passes. Only the goroutine running the passes
// touches it.
type traceCtx struct {
	sp  *spans
	rec *obs.Recorder

	depthBefore int
	depthAfter  int
	blocks      float64
	cnots       float64
	pulses      float64
	serveReqs   int
	compileMS   []float64 // serve: compile time from each envelope
	queueMS     []float64
	overheadMS  []float64
	rejected    int

	store struct {
		flushed int64
		loaded  int
		bytes   int64
		flushS  float64 // the populating server's shutdown
	}

	prof   bytes.Buffer     // the open window's profile
	profs  [][]byte         // one CPU profile per closed window
	stacks [][]string       // their samples
	counts []int64          // and sample counts
	cpu    cpuShares        // attribution of all windows' samples
	mem0   runtime.MemStats // at the open window's start
	mem    struct{ alloc, mallocs, gcs, pauseNs uint64 }
	err    error // the first profiling error
}

func newTraceCtx() *traceCtx { return &traceCtx{sp: newSpans(), rec: obs.New()} }

func (tc *traceCtx) spans() *spans {
	if tc == nil {
		return nil
	}
	return tc.sp
}

func (tc *traceCtx) recorder() *obs.Recorder {
	if tc == nil {
		return nil
	}
	return tc.rec
}

// startWindow opens a pass's timed window: the CPU profile and the
// runtime statistics cover only the timed operations, not the output
// checks after them.
func (tc *traceCtx) startWindow() {
	if tc == nil || tc.err != nil {
		return
	}
	runtime.ReadMemStats(&tc.mem0)
	tc.prof.Reset()
	tc.err = pprof.StartCPUProfile(&tc.prof)
}

// stopWindow closes the window and adds its samples and statistics.
func (tc *traceCtx) stopWindow() {
	if tc == nil || tc.err != nil {
		return
	}
	pprof.StopCPUProfile()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	tc.mem.alloc += m1.TotalAlloc - tc.mem0.TotalAlloc
	tc.mem.mallocs += m1.Mallocs - tc.mem0.Mallocs
	tc.mem.gcs += uint64(m1.NumGC - tc.mem0.NumGC)
	tc.mem.pauseNs += m1.PauseTotalNs - tc.mem0.PauseTotalNs
	prof := bytes.Clone(tc.prof.Bytes())
	stacks, counts, err := parseCPUProfile(prof)
	if err != nil {
		tc.err = fmt.Errorf("cpu profile: %w", err)
		return
	}
	tc.profs = append(tc.profs, prof)
	tc.stacks = append(tc.stacks, stacks...)
	tc.counts = append(tc.counts, counts...)
}

// finish attributes the samples of every window.
func (tc *traceCtx) finish() error {
	tc.cpu = attribute(tc.stacks, tc.counts)
	return tc.err
}

// addCompile adds one direct compile's stage statistics.
func (tc *traceCtx) addCompile(res *core.Result) {
	if tc == nil {
		return
	}
	tc.depthBefore += res.Stats.DepthBefore
	tc.depthAfter += res.Stats.DepthAfterZX
	tc.blocks += float64(res.Stats.Blocks)
	tc.cnots += float64(res.Stats.CNOTsAfter)
	tc.pulses += float64(res.Stats.PulseCount)
}

// addServe adds one served compile: its envelope timings, the stage
// statistics its manifest carries, and its per-request obs snapshot.
func (tc *traceCtx) addServe(resp *serve.CompileResponse, clientMS float64) {
	if tc == nil {
		return
	}
	tc.rec.Merge(resp.Manifest.Obs)
	m := resp.Manifest.Metrics
	tc.serveReqs++
	tc.blocks += m["blocks"]
	tc.cnots += m["cnots"]
	tc.pulses += m["pulses"]
	tc.compileMS = append(tc.compileMS, resp.CompileMS)
	tc.queueMS = append(tc.queueMS, resp.QueueMS)
	tc.overheadMS = append(tc.overheadMS, clientMS-resp.QueueMS-resp.CompileMS)
}

// addRejected counts a request the server refused (429 or 503).
func (tc *traceCtx) addRejected(status int) {
	if tc == nil || (status != 429 && status != 503) {
		return
	}
	tc.rejected++
}

// stageTimers are the pipeline's stage timers; the part of a compile
// they do not cover is core.other_s.
var stageTimers = []string{"stage/lower", "stage/zx", "stage/route", "stage/partition", "stage/synth", "stage/regroup", "stage/qoc"}

// layerMetrics assembles the per-layer figures. Times and counts are
// per pass of the traced part; ratios are given with their base.
func (tc *traceCtx) layerMetrics(passes int, untracedRunS, tracedRunS float64) map[string]metric {
	snap := tc.rec.Snapshot()
	per := 1 / float64(passes)
	out := map[string]metric{}
	set := func(k, unit string, v float64) { out[k] = metric{Value: v, Unit: unit} }
	timer := func(name string) float64 { return snap.Timers[name].Total.Seconds() * per }
	count := func(name string) float64 { return float64(snap.Counters[name]) * per }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	spans := tc.sp.totals()
	compileS := spans["core.CompileContext"].Total.Seconds() * per
	if tc.serveReqs > 0 {
		compileS = 0
		for _, ms := range tc.compileMS {
			compileS += ms / 1e3 * per
		}
	}
	stages := 0.0
	for _, st := range stageTimers {
		stages += timer(st)
	}
	set("core.compile_s", "s", compileS)
	set("core.other_s", "s", compileS-stages)

	set("zx.self_s", "s", timer("stage/zx"))
	set("zx.depth_before", "count", float64(tc.depthBefore)*per)
	set("zx.depth_ratio", "1", ratio(float64(tc.depthAfter), float64(tc.depthBefore)))

	set("partition.self_s", "s", timer("stage/partition"))
	set("partition.blocks", "count", tc.blocks*per)

	hits, misses := count("synthcache/hit"), count("synthcache/miss")
	set("synth.self_s", "s", timer("stage/synth"))
	set("synth.nodes", "count", count("synth/nodes"))
	set("synth.instantiations", "count", count("synth/instantiations"))
	set("synth.instantiate_s", "s", timer("synth/instantiate"))
	set("synth.cache_lookups", "count", hits+misses)
	set("synth.cache_hit_ratio", "1", ratio(hits, hits+misses))
	set("synth.fallbacks", "count", count("synth/fallbacks"))
	set("synth.cnots", "count", tc.cnots*per)

	set("regroup.self_s", "s", timer("stage/regroup"))
	set("regroup.pulses", "count", tc.pulses*per)

	probes := count("qoc/duration_probes")
	set("qoc.self_s", "s", timer("stage/qoc"))
	set("qoc.runs", "count", count("qoc/runs"))
	set("qoc.probes", "count", probes)
	set("qoc.grape_iters", "count", snap.Dists["qoc/grape/iterations"].Sum*per)
	set("qoc.failed_probes", "count", count("qoc/grape/stop/max_iter"))
	set("qoc.useful_probe_ratio", "1", ratio(count("qoc/grape/stop/target"), probes))
	set("qoc.pulse_s_max", "s", snap.Timers["qoc/pulse"].Max.Seconds())

	lh, lm := count("library/hits"), count("library/misses")
	set("pulse.library_lookups", "count", lh+lm)
	set("pulse.library_hit_ratio", "1", ratio(lh, lh+lm))

	set("cpu.samples", "count", float64(tc.cpu.Samples))
	for _, l := range []string{"linalg", "kernel", "qoc", "synth", "opt", "zx", "sim", "other", "harness", "runtime"} {
		set("cpu."+l+"_share", "1", tc.cpu.share(l))
	}
	set("cpu.eig_cum_share", "1", ratio(float64(tc.cpu.EigCum), float64(tc.cpu.Samples)))

	set("store.open_s", "s", spans["store.Open"].Total.Seconds())
	set("store.records_loaded", "count", float64(tc.store.loaded))
	set("store.flush_s", "s", tc.store.flushS)
	set("store.flushed", "count", float64(tc.store.flushed))
	set("store.bytes", "bytes", float64(tc.store.bytes))

	set("serve.requests", "count", float64(tc.serveReqs)*per)
	set("serve.queue_ms_p50", "ms", median(tc.queueMS))
	set("serve.compile_ms_p50", "ms", median(tc.compileMS))
	set("serve.overhead_ms_p50", "ms", median(tc.overheadMS))
	set("serve.rejected", "count", float64(tc.rejected))

	set("go.alloc_mb", "MB", float64(tc.mem.alloc)/1e6*per)
	set("go.mallocs", "count", float64(tc.mem.mallocs)*per)
	set("go.gc_cycles", "count", float64(tc.mem.gcs)*per)
	set("go.gc_pause_ms", "ms", float64(tc.mem.pauseNs)/1e6*per)

	set("trace.untraced_run_s", "s", untracedRunS)
	set("trace.run_s", "s", tracedRunS)
	set("trace.overhead_ratio", "1", ratio(tracedRunS, untracedRunS)-1)
	return out
}

// writeArtifacts writes the traced run's evidence to dir: the harness
// spans as a Chrome trace, their per-name self times, one CPU profile
// per traced pass and the per-layer table.
func (tc *traceCtx) writeArtifacts(dir string, layers map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	chrome, err := tc.sp.chromeTrace()
	if err != nil {
		return err
	}
	table, err := json.MarshalIndent(map[string]interface{}{
		"layers": layers,
		"spans":  tc.sp.totals(),
	}, "", "  ")
	if err != nil {
		return err
	}
	files := map[string][]byte{"spans.json": chrome, "layers.json": table}
	for i, prof := range tc.profs {
		files[fmt.Sprintf("cpu-%d.pprof", i)] = prof
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status, falling back to the Go runtime's total obtained
// memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
