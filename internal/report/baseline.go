package report

import (
	"encoding/json"
	"fmt"
	"sort"
)

// BenchArtifact is one BENCH_<suite>.json file: the machine-readable
// output of `epoc-bench -json` and the input of `epoc-bench -baseline`.
// It carries a manifest per circuit, keyed and sorted by circuit name,
// so two artifacts from the same suite and config compare positionally
// without heuristics.
type BenchArtifact struct {
	Version           int               `json:"version"`
	Suite             string            `json:"suite"`
	Strategy          string            `json:"strategy"`
	Config            map[string]string `json:"config,omitempty"`
	ConfigFingerprint string            `json:"config_fingerprint"`
	Circuits          []CircuitResult   `json:"circuits"`
}

// CircuitResult is one circuit's metrics inside a bench artifact.
type CircuitResult struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// Sort orders the circuits by name; Encode calls it so artifact bytes
// are independent of run order.
func (a *BenchArtifact) Sort() {
	sort.Slice(a.Circuits, func(i, j int) bool { return a.Circuits[i].Name < a.Circuits[j].Name })
}

// EncodeArtifact renders a bench artifact as indented JSON with a
// trailing newline, circuits sorted by name.
func EncodeArtifact(a *BenchArtifact) ([]byte, error) {
	a.Sort()
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeArtifact parses a bench artifact, rejecting unknown versions.
func DecodeArtifact(data []byte) (*BenchArtifact, error) {
	var a BenchArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("report: invalid bench artifact: %w", err)
	}
	if a.Version != ManifestVersion {
		return nil, fmt.Errorf("report: bench artifact version %d, this build reads %d", a.Version, ManifestVersion)
	}
	return &a, nil
}
