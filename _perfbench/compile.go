package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/core"
	"epoc/internal/hardware"
)

// circuitCase is one input circuit with the device it compiles for.
type circuitCase struct {
	name string
	c    *circuit.Circuit
	dev  *hardware.Device
}

// outcome is the deterministic part of one compile's result, compared
// across passes: the same input must compile to the same lowered
// circuit and schedule.
type outcome struct {
	latency, fidelity float64
	stats             core.Stats
	lowered           string
}

// compileWorkload compiles a circuit list in sequence with the EPOC
// strategy, one worker, and a fresh pulse library and synthesis cache
// per compile, so every compile does cold work. Each pass compiles the
// named circuits again and new seeded random ones.
type compileWorkload struct {
	mode  core.QOCMode
	reps  int     // set-up repetitions
	passS float64 // nominal pass time on the reference machine
	build func(rng *rand.Rand) []*circuitCase
	check func(*circuitCase, *core.Result) error

	seed   int64
	passes [][]*circuitCase   // each pass's inputs
	first  map[string]outcome // circuit text -> its first verified outcome
}

// passRNG is the random source of pass p's inputs.
func passRNG(seed int64, p int) *rand.Rand {
	return rand.New(rand.NewSource(seed + 1_000_003*int64(p)))
}

// coldCircuits is the seven Table-1 circuits and two seeded ones: a
// 4-qubit circuit of depth 6 and a 5-qubit circuit of depth 24. Their
// sizes put one below and one above the median Table-1 compile, so the
// seed moves run_cpu_s but not which compile is the median.
func coldCircuits(rng *rand.Rand) []*circuitCase {
	small := benchcirc.RandomCircuit(4, 6, rng.Int63())
	large := benchcirc.RandomCircuit(5, 24, rng.Int63())
	cases := namedCases(benchcirc.Table1Names())
	return append(cases, newCase("random4x6", small), newCase("random5x24", large))
}

// estimateCircuits is the 17 named circuits plus 80 seeded random
// circuits stratified over the Figure 5 population: 4–8 qubits (16 of
// each width) at depths spread evenly over 20–60.
func estimateCircuits(rng *rand.Rand) []*circuitCase {
	cases := namedCases(benchcirc.Names())
	for i := 0; i < 80; i++ {
		n, depth := 4+i%5, 20+40*(i/5)/15
		c := benchcirc.RandomCircuit(n, depth, rng.Int63())
		cases = append(cases, newCase(fmt.Sprintf("random%dx%d-%d", n, depth, i), c))
	}
	return cases
}

func namedCases(names []string) []*circuitCase {
	out := make([]*circuitCase, 0, len(names))
	for _, n := range names {
		c, err := benchcirc.Get(n)
		if err != nil {
			panic(err) // the names come from benchcirc itself
		}
		out = append(out, newCase(n, c))
	}
	return out
}

func newCase(name string, c *circuit.Circuit) *circuitCase {
	return &circuitCase{name: name, c: c, dev: hardware.LinearChain(c.NumQubits)}
}

func newColdFull(seed int64) *compileWorkload {
	return &compileWorkload{
		mode:  core.QOCFull,
		reps:  201,
		passS: 30,
		build: coldCircuits,
		check: checkFull,
		seed:  seed,
	}
}

func newEstimateSynth(seed int64) *compileWorkload {
	return &compileWorkload{
		mode:  core.QOCEstimate,
		reps:  51,
		passS: 6.5,
		build: estimateCircuits,
		check: checkLowered,
		seed:  seed,
	}
}

func (w *compileWorkload) setupReps() int { return w.reps }

func (w *compileWorkload) passSeconds() float64 { return w.passS }

// setup generates every pass's input circuits and their devices.
func (w *compileWorkload) setup(ctx context.Context, n int, tc *traceCtx) error {
	w.passes, w.first = make([][]*circuitCase, n), map[string]outcome{}
	for p := range w.passes {
		w.passes[p] = w.build(passRNG(w.seed, p))
	}
	return nil
}

func (w *compileWorkload) close() {}

// pass compiles pass p's cases once, then checks the outputs outside
// the timed window: a circuit's first result against the reference,
// the result of a circuit seen in an earlier pass against that
// verified first one.
func (w *compileWorkload) pass(ctx context.Context, p int, tc *traceCtx) (passResult, error) {
	cases := w.passes[p]
	root := tc.spans().start(0, fmt.Sprintf("pass %d", p))
	results := make([]*core.Result, len(cases))
	errs := make([]error, len(cases))
	out := passResult{OpsMS: make([]float64, len(cases)), Attempted: len(cases), FidMin: 1}
	tc.startWindow()
	start, cpu0 := time.Now(), cpuSeconds()
	for i, cc := range cases {
		opts := core.Options{Strategy: core.EPOC, Device: cc.dev, Mode: w.mode, Workers: 1, Obs: tc.recorder()}
		c0 := cpuSeconds()
		sp := tc.spans().start(root, "core.CompileContext")
		results[i], errs[i] = core.CompileContext(ctx, cc.c, opts)
		tc.spans().end(sp)
		out.OpsMS[i] = (cpuSeconds() - c0) * 1000
	}
	out.Wall, out.CPU = time.Since(start), cpuSeconds()-cpu0
	tc.stopWindow()
	tc.spans().end(root)

	for i, cc := range cases {
		res, err := results[i], errs[i]
		if err == nil && res.Degraded {
			err = fmt.Errorf("degraded: %v", res.DegradeReasons)
		}
		if err == nil {
			err = w.verify(p, cc, res)
		}
		if err != nil {
			out.Failures = append(out.Failures, fmt.Sprintf("pass %d %s: %v", p, cc.name, err))
			continue
		}
		out.LatencyNS += res.Latency
		if res.Fidelity < out.FidMin {
			out.FidMin = res.Fidelity
		}
		tc.addCompile(res)
	}
	return out, nil
}

// verify checks a circuit's first result against the reference and
// records its outcome; later results must reproduce that outcome
// exactly (same lowered circuit, latency, fidelity and statistics).
func (w *compileWorkload) verify(p int, cc *circuitCase, res *core.Result) error {
	o := outcome{latency: res.Latency, fidelity: res.Fidelity, stats: res.Stats}
	if res.Lowered != nil {
		o.lowered = res.Lowered.String()
	}
	key := cc.c.String()
	first, ok := w.first[key]
	if !ok {
		if err := w.check(cc, res); err != nil {
			return err
		}
		w.first[key] = o
		return nil
	}
	if o != first {
		return fmt.Errorf("pass %d differs from the circuit's first compile: latency %v/%v fidelity %v/%v stats %+v/%+v",
			p, o.latency, first.latency, o.fidelity, first.fidelity, o.stats, first.stats)
	}
	return nil
}
