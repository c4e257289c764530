package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"epoc/internal/faultclock"
	"epoc/internal/hardware"
	"epoc/internal/obs"
	"epoc/internal/pulse"
	"epoc/internal/trace"
)

// traceCompile runs one EPOC compile of the obs test circuit with a
// fake-clock tracer attached and returns the Chrome export.
func traceCompile(t *testing.T, workers int) []byte {
	t.Helper()
	c := obsTestCircuit()
	tr := trace.New(faultclock.NewFake())
	_, err := Compile(c, Options{
		Strategy:       EPOC,
		Device:         hardware.LinearChain(c.NumQubits),
		Workers:        workers,
		Trace:          tr,
		GRAPEIters:     40,
		FidelityTarget: 0.99,
		Library:        pulse.NewLibrary(true),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.ChromeTrace()
}

// TestTraceGoldenWorkerInvariant is the golden determinism test: under
// the fake clock a full-QOC EPOC compile exports byte-identical Chrome
// traces at Workers:1 and Workers:8. Goroutine interleaving in the
// stage-3 synthesis pool and the stage-5 prefill pool must not leak
// into the artifact — spans are ordered by their deterministic
// attributes, and zero-width spans all collapse onto one track.
func TestTraceGoldenWorkerInvariant(t *testing.T) {
	serial := traceCompile(t, 1)
	parallel := traceCompile(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trace export depends on worker count\nWorkers:1 (%d bytes):\n%s\nWorkers:8 (%d bytes):\n%s",
			len(serial), serial, len(parallel), parallel)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Tid  float64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(serial, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		names[e.Name]++
		if e.Tid != 0 {
			t.Fatalf("fake-clock span %q on track %v, want 0", e.Name, e.Tid)
		}
	}
	for _, want := range []string{"compile", "stage/zx", "stage/partition", "stage/synth",
		"stage/synth/block", "stage/regroup", "stage/qoc", "qoc/pulse", "qoc/duration_probe"} {
		if names[want] == 0 {
			t.Fatalf("no %q span in the trace; got %v", want, names)
		}
	}
}

// TestTraceDoesNotChangeResults pins that attaching a tracer is
// observation only, like the obs recorder.
func TestTraceDoesNotChangeResults(t *testing.T) {
	c := obsTestCircuit()
	dev := hardware.LinearChain(c.NumQubits)
	plain, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	traced, err := Compile(c, Options{Strategy: EPOC, Device: dev, Mode: QOCEstimate, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Latency != traced.Latency || plain.Fidelity != traced.Fidelity {
		t.Fatalf("tracing changed results: %v/%v vs %v/%v",
			plain.Latency, plain.Fidelity, traced.Latency, traced.Fidelity)
	}
	if plain.Stats != traced.Stats {
		t.Fatalf("tracing changed stats: %+v vs %+v", plain.Stats, traced.Stats)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	// Estimate mode still attributes per-pulse spans.
	sum := tr.Summary()
	if sum.ByName["qoc/pulse"].Count == 0 {
		t.Fatalf("no qoc/pulse spans in estimate mode: %v", sum.ByName)
	}
	if sum.ByName["compile"].Count != 1 {
		t.Fatalf("compile span count: %v", sum.ByName["compile"])
	}
}

// boundaries are the pipeline's instrumented regions. Each is one
// trace span whose End also records the obs timer of the same name.
var boundaries = []string{
	"compile", "stage/lower", "stage/zx", "stage/route", "stage/partition",
	"stage/synth", "stage/synth/block", "stage/regroup", "stage/qoc",
	"qoc/pulse", "qoc/duration_probe",
}

// TestBoundarySpansFeedObsTimers pins the one-instrument contract: in
// both QOC modes, every boundary's trace span count equals its obs
// timer count, because the span is the timer. Estimate mode is the
// case that used to differ: qoc/pulse timed only optimizer runs there,
// while a pulse span opened for every pulse.
func TestBoundarySpansFeedObsTimers(t *testing.T) {
	c := obsTestCircuit()
	seen := map[string]bool{}
	for _, mode := range []QOCMode{QOCFull, QOCEstimate} {
		for _, strategy := range []Strategy{EPOC, GateBased} {
			tr := trace.New(nil)
			rec := obs.New()
			_, err := Compile(c, Options{
				Strategy:       strategy,
				Device:         hardware.LinearChain(c.NumQubits),
				Mode:           mode,
				Route:          true,
				GRAPEIters:     40,
				FidelityTarget: 0.99,
				Library:        pulse.NewLibrary(true),
				Trace:          tr,
				Obs:            rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum, snap := tr.Summary(), rec.Snapshot()
			for _, n := range boundaries {
				spans, timers := sum.ByName[n].Count, snap.Timers[n].Count
				if spans != timers {
					t.Errorf("mode %v %s: %s has %d spans but %d obs timer entries", mode, strategy, n, spans, timers)
				}
				seen[n] = seen[n] || spans > 0
			}
		}
	}
	for _, n := range boundaries {
		if !seen[n] {
			t.Errorf("boundary %s never ran; the parity check is vacuous for it", n)
		}
	}
}

// TestUninstrumentedStageNoAllocs pins the disabled path of the stage
// helper: with Obs, Trace and Log all nil, running a stage allocates
// nothing.
func TestUninstrumentedStageNoAllocs(t *testing.T) {
	var o Options
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		_ = o.stage("stage/zx", func(*trace.Span) error {
			n++
			return nil
		})
	})
	if allocs != 0 || n == 0 {
		t.Fatalf("uninstrumented stage allocated %.1f times per run (ran %d times), want 0", allocs, n)
	}
}
