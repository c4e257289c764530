// Benchmark suites as machine-readable artifacts: -suite runs a fixed
// circuit set under a pinned config, -json writes the per-circuit
// metrics as BENCH_<suite>.json, and -baseline gates the run against a
// previously committed artifact — the CI perf gate.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"epoc/internal/benchcirc"
	"epoc/internal/core"
	"epoc/internal/hardware"
	"epoc/internal/pulse"
	"epoc/internal/report"
	"epoc/internal/store"
)

// budgetSpec holds the raw -stage-budget string for the artifact's
// config fingerprint: budgets change the deterministic metrics, so two
// artifacts are only comparable under the same spec.
var budgetSpec string

// storeRoot (set by the -store flag) switches the suite from estimate
// to full-GRAPE mode backed by a persistent pulse/synth store: run 1
// pays for GRAPE and populates the store, run 2 serves every pulse
// from disk. The artifact is then named BENCH_<suite>_warm.json and
// carries a store marker in its config so warm artifacts never
// compare against estimate baselines.
var storeRoot string

// suiteCircuits maps a suite name to its circuit list. Suites run the
// EPOC strategy in estimate mode: every gated metric is then a pure
// function of the circuit set and config, so the regression gate can
// compare at tight tolerances across machines.
func suiteCircuits(suite string) ([]string, error) {
	switch suite {
	case "small":
		return benchcirc.Table1Names(), nil
	case "all":
		return benchcirc.AllNames(), nil
	}
	return nil, fmt.Errorf("unknown -suite %q (suites: small, all)", suite)
}

// runSuite compiles every circuit in the suite and collects the flat
// metric map of each into a sorted BenchArtifact.
func runSuite(suite string) (*report.BenchArtifact, error) {
	names, err := suiteCircuits(suite)
	if err != nil {
		return nil, err
	}
	art := &report.BenchArtifact{
		Version:  report.ManifestVersion,
		Suite:    suite,
		Strategy: string(core.EPOC),
		Config: map[string]string{
			"mode":         "estimate",
			"stage_budget": budgetSpec,
		},
	}
	var shared *store.Store
	if storeRoot != "" {
		art.Config["mode"] = "full"
		art.Config["store"] = "on"
		// One store shared by every circuit in the suite: the namespace
		// ignores qubit count, so a single open covers the whole set and
		// per-compile harvest makes each circuit's pulses available to
		// the next (and, after the final flush, to the next run).
		st, err := core.OpenStore(storeRoot, core.Options{
			Strategy: core.EPOC,
			Device:   hardware.LinearChain(2),
			Mode:     core.QOCFull,
		})
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", suite, err)
		}
		shared = st
		defer func() {
			if cerr := shared.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "epoc-bench: store close:", cerr)
			}
		}()
	}
	// The fingerprint hashes strategy + config exactly like a run
	// manifest's, so the two artifact kinds agree on comparability.
	art.ConfigFingerprint = (&report.Manifest{
		Strategy: art.Strategy,
		Config:   art.Config,
	}).Fingerprint()

	for _, name := range names {
		c, err := benchcirc.Get(name)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", suite, err)
		}
		opts := core.Options{
			Strategy: core.EPOC,
			Device:   hardware.LinearChain(c.NumQubits),
			Mode:     core.QOCEstimate,
			Library:  pulse.NewLibrary(true),
			Workers:  workerCount,
		}
		if shared != nil {
			opts.Mode = core.QOCFull
			opts.Store = shared
		}
		res, err := compile(c, opts)
		if err != nil {
			return nil, fmt.Errorf("suite %s, circuit %s: %w", suite, name, err)
		}
		art.Circuits = append(art.Circuits, report.CircuitResult{
			Name:    name,
			Metrics: res.MetricMap(),
		})
		fmt.Printf("  %-12s latency %8.1f ns  fidelity %.5f  pulses %3.0f\n",
			name, res.Latency, res.Fidelity, res.MetricMap()["pulses"])
	}
	art.Sort()
	return art, nil
}

// runSuiteMode drives the -suite/-json/-baseline flags: run the suite,
// optionally persist the artifact, optionally gate against a baseline.
// It exits the process non-zero when the gate finds regressions.
func runSuiteMode(suite, jsonDir, baselinePath string) {
	if storeRoot != "" {
		fmt.Printf("== Suite %s (EPOC, full mode, store %s) ==\n", suite, storeRoot)
	} else {
		fmt.Printf("== Suite %s (EPOC, estimate mode) ==\n", suite)
	}
	art, err := runSuite(suite)
	if err != nil {
		fatalErr(err)
	}
	if jsonDir != "" {
		data, err := report.EncodeArtifact(art)
		if err != nil {
			fatalErr(err)
		}
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			fatalErr(err)
		}
		name := "BENCH_" + suite
		if storeRoot != "" {
			name += "_warm"
		}
		path := filepath.Join(jsonDir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatalErr(err)
		}
		fmt.Println("wrote", path)
	}
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			fatalErr(err)
		}
		base, err := report.DecodeArtifact(raw)
		if err != nil {
			fatalErr(fmt.Errorf("baseline %s: %w", baselinePath, err))
		}
		d, violations, err := report.GateArtifacts(base, art)
		if err != nil {
			fatalErr(fmt.Errorf("baseline %s: %w", baselinePath, err))
		}
		if len(violations) > 0 {
			fmt.Fprint(os.Stderr, report.FormatDiff(d))
			fmt.Fprintf(os.Stderr, "epoc-bench: %d regression(s) vs %s:\n", len(violations), baselinePath)
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("baseline check passed: %d circuits, no regressions vs %s\n",
			len(art.Circuits), baselinePath)
	}
}

func fatalErr(err error) {
	fmt.Fprintln(os.Stderr, "epoc-bench:", err)
	os.Exit(1)
}
