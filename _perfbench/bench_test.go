package main

import (
	"bytes"
	"context"
	"math"
	"math/cmplx"
	"runtime/pprof"
	"testing"
	"time"

	"epoc/internal/benchcirc"
	"epoc/internal/linalg"
)

func TestRefUnitaryMatchesCircuitUnitary(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		c := benchcirc.RandomCircuit(3+int(seed%3), 12, seed)
		got, want := refUnitary(c), c.Unitary()
		for i := range want.Data {
			if cmplx.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("seed %d: entry %d = %v, circuit.Unitary gives %v", seed, i, got.Data[i], want.Data[i])
			}
		}
	}
	// Three-qubit gates take the generic path.
	for _, name := range []string{"toffoli", "fredkin"} {
		c, err := benchcirc.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if d := linalg.PhaseDistance(refUnitary(c), c.Unitary()); d > 1e-9 {
			t.Fatalf("%s: distance %g", name, d)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	few := []float64{5, 1, 9, 3}
	if v, p := tailPercentile(few); v != 9 || p != 100 {
		t.Fatalf("few samples: got %v at p%v, want the maximum", v, p)
	}
	var many []float64
	for i := 100; i >= 1; i-- {
		many = append(many, float64(i))
	}
	// 90 of the 100 samples lie at or below 90.
	if v, p := tailPercentile(many); v != 90 || p != 90 {
		t.Fatalf("100 samples: got %v at p%v, want 90 at p90", v, p)
	}
	// Nine samples: the nearest rank of 90% is the ninth, the maximum.
	if v, p := tailPercentile(many[91:]); v != 9 || p != 100 {
		t.Fatalf("9 samples: got %v at p%v, want the maximum", v, p)
	}
}

// TestCPUSecondsCountsWorkNotWaiting checks the clock the timing
// metrics read: it advances while the process computes and stays
// nearly still while it sleeps.
func TestCPUSecondsCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuSeconds()
	time.Sleep(200 * time.Millisecond)
	if d := cpuSeconds() - c0; d > 0.05 {
		t.Fatalf("200 ms of sleep took %.3f s of CPU", d)
	}
	c0 = cpuSeconds()
	x := 1.0
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	if d := cpuSeconds() - c0; d < 0.05 || x == 0 {
		t.Fatalf("200 ms of computing took %.3f s of CPU", d)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &spans{epoch: t0, list: []span{
		{ID: 1, Name: "pass", Start: at(0), End: at(100)},
		// Two overlapping clients cover 10..70; a third child sticks
		// out past the parent and counts only up to 100.
		{ID: 2, Parent: 1, Name: "client", Start: at(10), End: at(50)},
		{ID: 3, Parent: 1, Name: "client", Start: at(30), End: at(70)},
		{ID: 4, Parent: 1, Name: "client", Start: at(90), End: at(120)},
	}}
	got := s.totals()
	if self := got["pass"].Self; self != 30*time.Millisecond {
		t.Fatalf("pass self time %v, want 30ms", self)
	}
	if c := got["client"]; c.Count != 3 || c.Self != c.Total {
		t.Fatalf("client totals %+v, want 3 leaf spans with self == total", c)
	}
	if _, err := s.chromeTrace(); err != nil {
		t.Fatal(err)
	}
}

func TestAttributeChargesInnermostModuleFrame(t *testing.T) {
	stacks := [][]string{
		{"math.Exp", "epoc/internal/linalg.EigHermitianInto", "epoc/internal/qoc.(*propCache).update", "main.main"},
		{"epoc/internal/linalg/kernel.mul4", "epoc/internal/linalg.MulInto", "epoc/internal/synth.cost"},
		{"runtime.mallocgc", "epoc/internal/core.compileQOC.func1"},
		{"encoding/json.Unmarshal", "main.(*serveWarm).pass"},
		{"runtime.gcBgMarkWorker"},
	}
	got := attribute(stacks, []int64{4, 3, 1, 1, 1})
	want := map[string]int64{"linalg": 4, "kernel": 3, "other": 1, "harness": 1, "runtime": 1}
	if got.Samples != 10 || got.EigCum != 4 {
		t.Fatalf("samples %d eig %d, want 10 and 4", got.Samples, got.EigCum)
	}
	for k, v := range want {
		if got.ByLayer[k] != v {
			t.Fatalf("layer %s: %d samples, want %d (all: %v)", k, got.ByLayer[k], v, got.ByLayer)
		}
	}
	if s := got.share("kernel"); math.Abs(s-0.3) > 1e-12 {
		t.Fatalf("kernel share %v, want 0.3", s)
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	a := linalg.Identity(64)
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		a = a.Mul(a)
	}
	pprof.StopCPUProfile()
	stacks, counts, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := attribute(stacks, counts)
	if shares.Samples == 0 {
		t.Skip("profile recorded no samples")
	}
	if shares.ByLayer["linalg"]+shares.ByLayer["kernel"] == 0 {
		t.Fatalf("no sample charged to linalg or kernel: %v", shares.ByLayer)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed int64, p int) []*circuitCase { return estimateCircuits(passRNG(seed, p)) }
	a, b := draw(7, 0), draw(7, 0)
	for i := range a {
		if a[i].c.String() != b[i].c.String() {
			t.Fatalf("case %d (%s) differs between two draws of one seed", i, a[i].name)
		}
	}
	for _, other := range [][]*circuitCase{draw(8, 0), draw(7, 1)} {
		differ := false
		for i := range a {
			differ = differ || a[i].c.String() != other[i].c.String()
		}
		if !differ {
			t.Fatal("another seed or pass drew identical circuits")
		}
	}
}

// deterministicMetrics are the figures a run must reproduce exactly
// for a given seed.
var deterministicMetrics = []string{
	"qoc.grape_iters", "qoc.probes", "qoc.failed_probes",
	"synth.nodes", "synth.instantiations", "partition.blocks", "regroup.pulses",
}

// traceOnePass sets up a workload and runs one traced pass.
func traceOnePass(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	ctx := context.Background()
	w, err := newWorkload(name, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	tc := newTraceCtx()
	if err := w.setup(ctx, 1, tc); err != nil {
		t.Fatal(err)
	}
	r, err := w.pass(ctx, 0, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Failures) > 0 {
		t.Fatalf("%s: %d failures, first: %s", name, len(r.Failures), r.Failures[0])
	}
	out := map[string]float64{"schedule_latency_ns": r.LatencyNS, "fidelity_min": r.FidMin}
	layers := tc.layerMetrics(1, 1, 1)
	for _, k := range deterministicMetrics {
		out[k] = layers[k].Value
	}
	return out
}

func TestDeterministicMetricsRepeat(t *testing.T) {
	workloads := []string{"estimate_synth", "serve_warm", "cold_full"}
	if testing.Short() {
		workloads = workloads[:1]
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := traceOnePass(t, name, 11), traceOnePass(t, name, 11)
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %v then %v with the same seed", k, v, b[k])
				}
			}
			if a["schedule_latency_ns"] <= 0 || a["fidelity_min"] <= 0 {
				t.Errorf("degenerate figures %v", a)
			}
			t.Logf("%s seed 11: %v", name, a)
		})
	}
}

func TestPassCount(t *testing.T) {
	for _, c := range []struct {
		seconds, pass float64
		want          int
	}{{20, 30, 1}, {1, 30, 1}, {20, 6.5, 3}, {20, 2.2, 9}, {60, 2.2, 27}} {
		if got := passCount(c.seconds, c.pass); got != c.want {
			t.Errorf("passCount(%v, %v) = %d, want %d", c.seconds, c.pass, got, c.want)
		}
	}
}

func TestServePassBodiesFollowSeed(t *testing.T) {
	a, names, err := passBodies(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := passBodies(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two builds from seed 5", i)
		}
		if _, warm := map[string]bool{"simon": true, "bb84": true, "bv": true, "decod24": true, "qaoa": true}[names[i]]; !warm {
			fresh++
		}
	}
	if len(a) != passRequests || fresh != freshRequests {
		t.Fatalf("%d requests with %d fresh, want %d with %d", len(a), fresh, passRequests, freshRequests)
	}
}

// TestServePassesRepeat checks that the restart before a pass returns
// the server to the state after set-up: the same pass sent twice
// passes every check and gives the same schedule figures.
func TestServePassesRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three compile servers")
	}
	ctx := context.Background()
	w := newServeWarm(3, t.TempDir())
	defer w.close()
	if err := w.setup(ctx, 1, nil); err != nil {
		t.Fatal(err)
	}
	var runs []passResult
	for p := 0; p < 2; p++ {
		r, err := w.pass(ctx, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Failures) > 0 {
			t.Fatalf("pass %d: %d failures, first: %s", p, len(r.Failures), r.Failures[0])
		}
		runs = append(runs, r)
	}
	if runs[0].LatencyNS != runs[1].LatencyNS || runs[0].FidMin != runs[1].FidMin {
		t.Fatalf("passes differ: latency %v/%v fidelity %v/%v",
			runs[0].LatencyNS, runs[1].LatencyNS, runs[0].FidMin, runs[1].FidMin)
	}
}
