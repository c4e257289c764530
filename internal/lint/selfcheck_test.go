package lint

import (
	"go/ast"
	"go/types"
	"testing"
)

// TestRepoIsLintClean runs the full analyzer suite over the real
// module and fails on any unsuppressed finding — the permanent guard
// that keeps the repository lint-clean: a future raw float comparison,
// global-rand draw, undeclared import edge, dropped error or copied
// lock fails `go test ./...`, not just `make lint`.
func TestRepoIsLintClean(t *testing.T) {
	root, modPath, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root, modPath)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}

	findings := Run(mod, All())
	for _, f := range Unsuppressed(findings) {
		t.Errorf("%s", f)
	}
	if t.Failed() {
		t.Log("fix the finding or add `//epoc:lint-ignore <analyzer> <reason>` on (or above) the line; see DESIGN.md §8")
	}

	// Table hygiene: every layeringDAG entry must name a real package,
	// so deleted or renamed packages cannot leave stale DAG rows.
	for rel := range layeringDAG {
		if _, ok := mod.Packages[modPath+"/"+rel]; !ok {
			t.Errorf("layeringDAG entry %q names no package in the module; update the table and ARCHITECTURE.md", rel)
		}
	}
	// Likewise every floatcmpAllowed key must name a function in the
	// module, so deleted or renamed functions cannot leave stale
	// exemptions behind.
	funcs := map[string]bool{}
	for _, pkg := range mod.Packages {
		for _, obj := range pkg.Info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				funcs[fn.FullName()] = true
			}
		}
	}
	for name := range floatcmpAllowed {
		if !funcs[name] {
			t.Errorf("floatcmpAllowed entry %q names no function in the module; update the table", name)
		}
	}

	// Suppression audit: count stays visible in -v output so reviewers
	// notice when the ignore inventory grows.
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		}
	}
	t.Logf("suite clean: %d analyzers over %d packages, %d reasoned suppressions", len(All()), len(mod.Packages), suppressed)
}

// TestSuiteRoster pins the registered analyzer set: adding an
// analyzer means registering it in All(), giving it a fixture
// (TestFixtures enforces that) and listing it here and in DESIGN.md §8.
func TestSuiteRoster(t *testing.T) {
	want := []string{
		"floatcmp", "globalrand", "layering", "errcheck", "copylockplus",
		"ctxflow", "spanend", "maporder", "lockguard", "goleak", "allochot",
		"metricname",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d: %v", len(got), len(want), got)
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("analyzer %d = %q, want %q", i, got[i], name)
		}
	}
}

// TestHotAnnotationsPresent pins the //epoc:hot seed set: the GRAPE
// propagator path and the dense linalg kernels must stay annotated so
// allochot keeps watching them (acceptance criterion for the
// hot-path allocation budget).
func TestHotAnnotationsPresent(t *testing.T) {
	root, modPath, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root, modPath)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	want := map[string][]string{
		"internal/qoc":      {"grapeFrom", "traceProduct", "update", "slotHamiltonianInto"},
		"internal/linalg":   {"Transpose", "Adjoint", "Kron", "EigHermitianInto", "ExpIHermitianInto", "ExpIFromEigInto"},
		"internal/opt":      {"LBFGS"},
		"internal/densesim": {"ApplyUnitary"},
	}
	for rel, fns := range want {
		pkg := mod.Packages[modPath+"/"+rel]
		if pkg == nil {
			t.Fatalf("package %s missing", rel)
		}
		hot := map[string]bool{}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && isHotFunc(fn) {
					hot[fn.Name.Name] = true
				}
			}
		}
		for _, name := range fns {
			if !hot[name] {
				t.Errorf("%s.%s has lost its //epoc:hot annotation", rel, name)
			}
		}
	}
}
