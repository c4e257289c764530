// Package core implements the EPOC compilation pipeline — the paper's
// primary contribution — and the baselines it is evaluated against:
//
//	gate-based    calibrated per-gate pulses, no QOC
//	accqoc        AccQOC-style: fixed 2-qubit partitions + QOC + library
//	paqoc         PAQOC-style: gate-level optimization, program-aware
//	              3-qubit partitions + QOC + library
//	epoc-nogroup  EPOC without the regrouping step (ablation: QOC is run
//	              directly on the fine-grained synthesis output)
//	epoc          full EPOC: ZX depth optimization → greedy partition →
//	              VUG synthesis → regrouping → QOC with a global-phase-
//	              aware pulse library
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"epoc/internal/circuit"
	"epoc/internal/faultclock"
	"epoc/internal/hardware"
	"epoc/internal/linalg"
	"epoc/internal/logx"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/store"
	"epoc/internal/synth"
	"epoc/internal/trace"
)

// Strategy selects a compilation flow.
type Strategy string

// Available strategies.
const (
	GateBased   Strategy = "gate-based"
	AccQOC      Strategy = "accqoc"
	PAQOC       Strategy = "paqoc"
	EPOCNoGroup Strategy = "epoc-nogroup"
	EPOC        Strategy = "epoc"
)

// Strategies lists all supported strategies in report order.
func Strategies() []Strategy {
	return []Strategy{GateBased, AccQOC, PAQOC, EPOCNoGroup, EPOC}
}

// QOCMode selects how block pulses are produced.
type QOCMode int

const (
	// QOCFull runs GRAPE with a duration binary search per distinct
	// block unitary (the paper's flow).
	QOCFull QOCMode = iota
	// QOCEstimate predicts pulse duration from the block's gate content
	// with constants calibrated against GRAPE; used for scale studies
	// where thousands of distinct blocks make full QOC impractical on
	// one machine (see DESIGN.md substitutions).
	QOCEstimate
)

// Budgets bounds how long a compilation may work. Zero values mean
// unlimited. Time budgets are wall-clock deadlines evaluated against
// the injected clock at loop granularity; iteration budgets are
// deterministic per-unit caps (per-block synthesis nodes, per-run
// optimizer iterations) that produce byte-identical results at any
// worker count. When a budget expires the pipeline degrades instead
// of failing: expendable stages are skipped, block synthesis falls
// back to the original gate realization, and QOC keeps its
// best-so-far pulse (or the calibrated estimator when nothing was
// probed). The compile then reports Result.Degraded with per-stage
// reasons. Cancellation via context is different: the compile aborts
// and partial work is discarded.
type Budgets struct {
	Total      time.Duration // whole-pipeline deadline
	SynthTime  time.Duration // stage-3 (block synthesis) deadline
	QOCTime    time.Duration // stage-5 (pulse optimization) deadline
	SynthNodes int           // per-block QSearch node-expansion cap
	QOCIters   int           // per-run GRAPE/CRAB iteration cap
}

// Zero reports whether no budget is configured.
func (b Budgets) Zero() bool {
	return b.Total == 0 && b.SynthTime == 0 && b.QOCTime == 0 &&
		b.SynthNodes == 0 && b.QOCIters == 0
}

// Options configures Compile.
type Options struct {
	Strategy Strategy
	Device   *hardware.Device

	// Partitioning (Algorithm 1) limits. Defaults depend on strategy.
	PartitionMaxQubits int
	PartitionMaxGates  int
	// Regrouping limit for the full EPOC flow (default 2).
	RegroupMaxQubits int

	// UseZX toggles the graph-based depth-optimization stage; set by
	// the strategy but overridable for ablations.
	UseZX *bool

	// Pulse library reuse. Library may be shared across compilations;
	// when nil a fresh one is created. MatchGlobalPhase defaults to
	// true for EPOC flows and false for AccQOC/PAQOC (the paper's
	// distinction).
	Library          *pulse.Library
	MatchGlobalPhase *bool

	// QOC tuning.
	Mode           QOCMode
	FidelityTarget float64 // default 0.999
	GRAPEIters     int     // default 200
	SlotStep2Q     int     // duration-search grid step for ≥2q blocks (default 8)
	Seed           int64   // default 1

	// Synthesis tuning (EPOC flows only).
	Synth synth.Options

	// SynthCache reuses block synthesis results across blocks and, when
	// shared, across compilations: it is keyed by the block unitary up
	// to global phase (the pulse-library keying scheme) and is
	// goroutine-safe, with concurrent in-flight requests for the same
	// unitary coalesced rather than raced. When nil a fresh cache is
	// created per compile.
	SynthCache *synth.Cache

	// Store attaches an opened persistent store (internal/store) shared
	// across compiles: the library and synthesis cache are warmed from
	// it before the pipeline runs and new entries are harvested and
	// flushed after. The store's namespace must match this
	// configuration's (core.StoreNamespace); a mismatched store is
	// ignored for the compile — never read, never written — because its
	// records were produced under different physics or tuning.
	Store *store.Store

	// StorePath, when Store is nil, opens a per-compile store under
	// this root directory (namespace derived from the options) and
	// closes it after the compile — the one-shot CLI convenience.
	// Long-lived processes should open once and share via Store.
	StorePath string

	// WarmStart seeds GRAPE from the nearest stored library entry (by
	// phase-invariant similarity, internal/qoc/similarity.go) on a
	// library miss, instead of a cold random start. nil defaults to
	// true when a store is attached, false otherwise. Warm candidates
	// are snapshotted once at QOC-stage entry, so results stay
	// byte-identical at any worker count.
	WarmStart *bool

	// Workers sets the number of goroutines used for block synthesis
	// and for QOC on distinct block unitaries (default 1; >1 helps on
	// multi-core machines). Results are collected by block index, so
	// the compiled output is identical for every worker count.
	Workers int

	// Decoherence enables T1/T2-aware fidelity: in addition to the ESP
	// product, each qubit decays for the schedule's full latency
	// (idle time included), so shorter schedules score higher. Off by
	// default — the paper's Equation 3 is pure pulse ESP.
	Decoherence bool

	// Route maps the circuit onto the device coupler topology before
	// partitioning, decomposing ≥3-qubit gates and inserting SWAPs.
	Route bool

	// Algorithm selects the pulse optimizer (default GRAPE).
	Algorithm QOCAlgorithm

	// Obs, when non-nil, records per-stage timings, optimizer
	// convergence metrics and library cache behaviour for this compile
	// (see internal/obs). The recorder is goroutine-safe and may be
	// shared across compilations to aggregate; snapshot it with
	// Obs.Snapshot() after Compile returns. Its timers (compile,
	// stage/*, stage/synth/block, qoc/pulse, qoc/duration_probe) are
	// recorded by the trace spans of the same names, so an Obs-only
	// compile gets a private tracer (below). With Obs, Trace and Log
	// all nil (the default) the instrumented paths cost a nil check
	// and zero allocations.
	Obs *obs.Recorder

	// Log, when non-nil, emits structured JSON records at the pipeline's
	// stage boundaries and at compile completion (stage name, span ID,
	// elapsed time, degrade reasons). A stage's elapsed_ms is its trace
	// span's interval, so a Log-only compile gets a private tracer too.
	// The serve layer passes a request-scoped logger already carrying
	// the trace_id, so a log line, a /metrics scrape and a Chrome trace
	// join on one ID (DESIGN.md §15).
	Log *logx.Logger

	// Trace, when non-nil, records a hierarchical span trace of this
	// compile: a "compile" root span, one child per pipeline stage, one
	// span per synthesized block class (with cache status, QSearch
	// nodes and achieved distance) and per pulse (with its
	// duration-search probes). Where Obs answers "how much time per
	// stage in aggregate", the trace answers "which block ate it".
	// Export with Trace.ChromeTrace (Perfetto-loadable) or bundle
	// Trace.Summary into a run manifest (internal/report). When Trace
	// is nil but Obs or Log is set, the compile makes its own
	// trace.New(nil) to measure with (one allocation per span, never
	// exported); spans then read the tracer's clock, so a fake-clock
	// tracer also fakes the obs timers.
	Trace *trace.Tracer

	// Budgets bounds the compile's work; see the type's documentation.
	// The zero value means unlimited.
	Budgets Budgets

	// Clock is the time source budget deadlines are evaluated against.
	// nil means the real clock; tests inject a faultclock.Fake so
	// budget expiry happens at an exact loop iteration. The clock is
	// never read unless a time budget is configured.
	Clock faultclock.Clock

	// Inject, when non-nil, arms deterministic trip points on the
	// pipeline's cancellation/budget check sites (see
	// faultclock.Sites). Test-only; production leaves it nil, which
	// costs one nil check per site announcement.
	Inject *faultclock.Injector

	// ctx and totalDeadline are set by CompileContext; stage gates are
	// derived from them (plus per-stage budgets) at stage entry.
	ctx           context.Context
	totalDeadline time.Time
	// synthGate/qocGate are the per-stage gates, built at stage entry
	// and threaded to the inner loops through this Options copy.
	synthGate *faultclock.Gate
	qocGate   *faultclock.Gate
	// compileSpan is the root trace span; synthSpan/qocSpan are the
	// stage-3/stage-5 spans, threaded to the block and pulse loops
	// through this Options copy so their spans nest correctly.
	compileSpan *trace.Span
	synthSpan   *trace.Span
	qocSpan     *trace.Span
	// warmCands/warmUs are the warm-start candidate snapshot taken at
	// stage-5 entry (see snapshotWarmCands): the exported library
	// entries, and a parallel matrix slice with nil holes for entries
	// without raw amplitudes, shaped for qoc.Nearest.
	warmCands []pulse.Entry
	warmUs    []*linalg.Matrix
}

// stage runs fn as one pipeline stage inside a child span of the
// compile root. The span is the stage's only instrument: ending it
// records the stage's obs timer (the root span carries the recorder),
// and its interval is the elapsed_ms of the "stage done" log record.
// stage returns fn's error; callers of stages that cannot fail discard
// it.
func (o *Options) stage(name string, fn func(sp *trace.Span) error) error {
	sp := o.compileSpan.Child(name)
	if log := o.Log; log.Enabled() {
		log.Info("stage start", "stage", name, "span", sp.ID())
		defer func() {
			log.Info("stage done",
				"stage", name,
				"span", sp.ID(),
				"elapsed_ms", float64(sp.Duration().Nanoseconds())/1e6)
		}()
	}
	defer sp.End()
	return fn(sp)
}

// stageGate builds the cancellation/budget gate for one stage: the
// compile's context and total deadline, tightened by the stage's own
// time budget measured from stage entry.
func (o *Options) stageGate(budget time.Duration) *faultclock.Gate {
	deadline := o.totalDeadline
	if budget > 0 {
		clock := o.Clock
		if clock == nil {
			clock = faultclock.Real()
		}
		if d := clock.Now().Add(budget); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	return &faultclock.Gate{Ctx: o.ctx, Clock: o.Clock, Deadline: deadline, Inj: o.Inject}
}

// QOCAlgorithm selects the optimal-control algorithm.
type QOCAlgorithm int

// Supported pulse optimizers (paper §2.4 discusses both).
const (
	AlgGRAPE QOCAlgorithm = iota
	AlgCRAB
)

func (o *Options) withDefaults() Options {
	out := *o
	if out.Device == nil {
		panic("core: Options.Device is required")
	}
	switch out.Strategy {
	case GateBased, AccQOC, PAQOC, EPOCNoGroup, EPOC:
	case "":
		out.Strategy = EPOC
	default:
		panic(fmt.Sprintf("core: unknown strategy %q", out.Strategy))
	}
	if out.PartitionMaxQubits == 0 {
		switch out.Strategy {
		case AccQOC:
			out.PartitionMaxQubits = 2
		default:
			out.PartitionMaxQubits = 2
		}
	}
	if out.PartitionMaxGates == 0 {
		switch out.Strategy {
		case AccQOC:
			// AccQOC slices the circuit into small uniform subcircuits.
			out.PartitionMaxGates = 4
		case PAQOC:
			// PAQOC pulses mined gate patterns of a few gates each.
			out.PartitionMaxGates = 6
		default:
			out.PartitionMaxGates = 16
		}
	}
	if out.RegroupMaxQubits == 0 {
		out.RegroupMaxQubits = 2
	}
	if out.UseZX == nil {
		zx := out.Strategy == EPOC || out.Strategy == EPOCNoGroup
		out.UseZX = &zx
	}
	if out.MatchGlobalPhase == nil {
		match := out.Strategy == EPOC || out.Strategy == EPOCNoGroup
		out.MatchGlobalPhase = &match
	}
	if out.Library == nil {
		out.Library = pulse.NewLibrary(*out.MatchGlobalPhase)
	}
	if out.FidelityTarget == 0 {
		out.FidelityTarget = 0.999
	}
	if out.GRAPEIters == 0 {
		out.GRAPEIters = 200
	}
	if out.SlotStep2Q == 0 {
		out.SlotStep2Q = 8
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Synth.Obs == nil {
		out.Synth.Obs = out.Obs
	}
	if out.Synth.BudgetNodes == 0 {
		out.Synth.BudgetNodes = out.Budgets.SynthNodes
	}
	if out.SynthCache == nil {
		out.SynthCache = synth.NewCache()
	}
	if out.WarmStart == nil {
		warm := out.Store != nil || out.StorePath != ""
		out.WarmStart = &warm
	}
	return out
}

// Stats records what each stage did.
type Stats struct {
	DepthBefore      int
	DepthAfterZX     int
	GatesBefore      int
	GatesAfterZX     int
	Blocks           int
	SynthFallback    int // blocks that kept their original gate realization
	VUGs             int // U3 VUGs emitted by synthesis
	CNOTsAfter       int // CNOTs in the synthesized circuit
	SynthCacheHits   int // eligible blocks served from the synthesis cache
	SynthCacheMisses int // eligible blocks that ran a fresh synthesis
	PulseCount       int
	QOCRuns          int // GRAPE duration searches actually executed
	WarmStarts       int // QOC runs seeded from a similar stored pulse
	LibraryHits      int
	LibraryMisses    int
	SynthDegraded    int // blocks whose synthesis stopped on a budget
	QOCDegraded      int // pulses kept as best-so-far or estimated on a budget
}

// Result is a compiled pulse program with its metrics.
type Result struct {
	Strategy    Strategy
	Schedule    *pulse.Schedule
	Latency     float64 // ns
	Fidelity    float64 // ESP (Equation 3)
	CompileTime time.Duration
	// QOCTime is the wall time of stage 5 (pulse optimization +
	// scheduling): the cost a warm store is supposed to erase. The
	// store-warm CI gate tracks it as qoc_time_ns.
	QOCTime time.Duration
	Stats   Stats

	// Lowered is the gate-level circuit the QOC stage consumed, before
	// regrouping: synthesized VUGs + CNOTs for EPOC flows, unitary
	// block gates for AccQOC/PAQOC, nil for the gate-based flow. It is
	// unitarily equivalent (up to global phase, within the synthesis
	// threshold) to the input circuit — the hook the end-to-end
	// equivalence and determinism tests verify against.
	Lowered *circuit.Circuit

	// Degraded reports that a budget expired mid-compile and the result
	// is a graceful fallback rather than the full pipeline's output: an
	// expendable stage was skipped, a block kept its gate realization,
	// or a pulse is the optimizer's best-so-far/estimate. The schedule
	// is still a correct realization of the input circuit.
	Degraded bool
	// DegradeReasons lists which stages degraded, sorted: a subset of
	// "zx", "synth", "regroup", "qoc".
	DegradeReasons []string
}

// MetricMap flattens the result into the flat float64 metric set the
// run manifest and bench artifacts carry, keyed to match the
// regression gate's default thresholds. compile_time_ns is the only
// wall-clock-dependent entry; everything else is deterministic for a
// given circuit and config.
func (r *Result) MetricMap() map[string]float64 {
	degraded := 0.0
	if r.Degraded {
		degraded = 1.0
	}
	return map[string]float64{
		"latency_ns":      r.Latency,
		"fidelity":        r.Fidelity,
		"compile_time_ns": float64(r.CompileTime.Nanoseconds()),
		"pulses":          float64(r.Stats.PulseCount),
		"blocks":          float64(r.Stats.Blocks),
		"vugs":            float64(r.Stats.VUGs),
		"cnots":           float64(r.Stats.CNOTsAfter),
		"synth_fallbacks": float64(r.Stats.SynthFallback),
		"qoc_runs":        float64(r.Stats.QOCRuns),
		"qoc_time_ns":     float64(r.QOCTime.Nanoseconds()),
		"warm_starts":     float64(r.Stats.WarmStarts),
		"degraded":        degraded,
	}
}

// Compile lowers a circuit to a pulse schedule under the selected
// strategy. It is CompileContext with a background context: no
// cancellation, budgets still honored.
func Compile(c *circuit.Circuit, opts Options) (*Result, error) {
	return CompileContext(context.Background(), c, opts)
}

// CompileContext is Compile under a context. Cancellation is observed
// at stage boundaries and inside every expensive loop (QSearch node
// expansions, GRAPE/CRAB iterations, duration-search probes, cache
// waits); a canceled compile returns the context's error promptly,
// discards partial work, and leaks no goroutines. Budget expiry (see
// Options.Budgets) instead degrades: the result is still returned,
// with Result.Degraded and DegradeReasons set.
func CompileContext(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	o := opts.withDefaults()
	o.ctx = ctx
	if o.Budgets.Total > 0 {
		clock := o.Clock
		if clock == nil {
			clock = faultclock.Real()
		}
		o.totalDeadline = clock.Now().Add(o.Budgets.Total)
	}
	start := time.Now()
	hits0, misses0 := o.Library.Counts()
	if o.Trace == nil && (o.Obs != nil || o.Log != nil) {
		o.Trace = trace.New(nil)
	}
	tsp := o.Trace.Start("compile").
		Time(o.Obs).
		SetStr("strategy", string(o.Strategy)).
		SetInt("qubits", int64(c.NumQubits)).
		SetInt("gates", int64(c.Len()))
	defer tsp.End()
	o.compileSpan = tsp
	ownedStore, err := attachStore(&o)
	if err != nil {
		return nil, err
	}
	if ownedStore != nil {
		defer func() {
			if cerr := ownedStore.Close(); cerr != nil {
				o.Obs.Add("store/flush_errors", 1)
			}
		}()
	}
	var res *Result
	switch o.Strategy {
	case GateBased:
		res, err = compileGateBased(c, o)
	default:
		res, err = compileQOC(c, o)
	}
	if err != nil {
		o.Obs.Add("compile/canceled", 1)
		tsp.SetStr("stop", "canceled")
		if o.Log.Enabled() {
			o.Log.Warn("compile aborted",
				"strategy", string(o.Strategy),
				"span", tsp.ID(),
				"err", err.Error(),
				"elapsed_ms", float64(time.Since(start).Nanoseconds())/1e6)
		}
		return nil, err
	}
	if res.Stats.SynthDegraded > 0 {
		res.DegradeReasons = append(res.DegradeReasons, "synth")
	}
	if res.Stats.QOCDegraded > 0 {
		res.DegradeReasons = append(res.DegradeReasons, "qoc")
	}
	sort.Strings(res.DegradeReasons)
	res.Degraded = len(res.DegradeReasons) > 0
	tsp.SetBool("degraded", res.Degraded)
	if res.Degraded {
		o.Obs.Add("compile/degraded", 1)
		tsp.SetStr("degrade_reasons", strings.Join(res.DegradeReasons, ","))
	} else {
		o.Obs.Add("compile/completed", 1)
	}
	hits1, misses1 := o.Library.Counts()
	if o.Obs != nil {
		o.Obs.Add("compiles", 1)
		o.Obs.Add("library/hits", int64(hits1-hits0))
		o.Obs.Add("library/misses", int64(misses1-misses0))
		o.Obs.Add("qoc/runs", int64(res.Stats.QOCRuns))
		o.Obs.Add("pulses", int64(res.Stats.PulseCount))
	}
	// Persist what this compile learned. Degradation doesn't block the
	// harvest: degraded pulses and budget-stopped syntheses were never
	// stored in the in-memory caches, so everything exported is clean.
	harvestStore(&o)
	res.Strategy = o.Strategy
	res.CompileTime = time.Since(start)
	res.Latency = res.Schedule.Latency
	res.Fidelity = res.Schedule.TotalFidelity()
	if o.Decoherence && o.Device.T2 > 0 {
		// Each qubit dephases over the schedule's full latency, idle
		// periods included.
		decay := math.Exp(-float64(c.NumQubits) * res.Latency / o.Device.T2)
		res.Fidelity *= decay
	}
	res.Stats.LibraryHits = hits1
	res.Stats.LibraryMisses = misses1
	if o.Log.Enabled() {
		o.Log.Info("compile done",
			"strategy", string(o.Strategy),
			"span", tsp.ID(),
			"qubits", c.NumQubits,
			"gates", c.Len(),
			"latency_ns", res.Latency,
			"fidelity", res.Fidelity,
			"qoc_runs", res.Stats.QOCRuns,
			"degraded", res.Degraded,
			"degrade_reasons", strings.Join(res.DegradeReasons, ","),
			"elapsed_ms", float64(res.CompileTime.Nanoseconds())/1e6)
	}
	return res, nil
}
