// Command epoc-stats diffs two observability artifacts and optionally
// gates on the result — the operator's lens over what a run, a bench
// sweep, or a live server actually did (DESIGN.md §15).
//
//	epoc-stats baseline.json current.json
//	epoc-stats -fail-on latency_ns=2%,fidelity=0 base.json cur.json
//	epoc-stats -promcheck -require epoc_stage_seconds metrics.prom
//
// Each positional file may be any of the three artifact shapes the
// repo produces — they are sniffed, not flagged:
//
//   - a run manifest (`epoc -report out.json`),
//   - a bench artifact (`epoc-bench -suite small -json dir`),
//   - a /v1/stats snapshot from a live epoc-serve.
//
// The diff table lists every metric either side carries with delta
// and percent change; -fail-on turns selected deltas into a gate
// (exit 1) so the same binary renders CI bench diffs and enforces
// them. -promcheck instead validates a Prometheus text-format scrape
// (a file, or - for stdin) with the strict parser the exposition
// tests use, for the metrics-smoke CI job.
//
// Exit codes: 0 clean, 1 gate/validation failure, 2 usage or load
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"epoc/internal/metrics"
	"epoc/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("epoc-stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		failOn    = fs.String("fail-on", "", "gate the diff: metric=limit[,metric=limit...]; limit is an absolute delta or a percentage (latency_ns=2%); =0 fails on any worsening")
		promcheck = fs.Bool("promcheck", false, "validate a Prometheus text-format scrape instead of diffing (one file argument, - for stdin)")
		require   = fs.String("require", "", "with -promcheck: comma-separated metric families that must be present")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: epoc-stats [-fail-on spec] baseline.json current.json\n")
		fmt.Fprintf(stderr, "       epoc-stats -promcheck [-require fam,...] scrape.prom\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *promcheck {
		return runPromcheck(fs.Args(), *require, stdout, stderr)
	}
	if *require != "" {
		fmt.Fprintln(stderr, "epoc-stats: -require only applies with -promcheck")
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	var rules []report.Threshold
	if *failOn != "" {
		var err error
		if rules, err = report.ParseFailOn(*failOn); err != nil {
			fmt.Fprintln(stderr, "epoc-stats:", err)
			return 2
		}
	}

	sides := make([]*report.RunStats, 2)
	for i, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "epoc-stats:", err)
			return 2
		}
		rs, err := report.LoadRunStats(path, data)
		if err != nil {
			fmt.Fprintln(stderr, "epoc-stats:", err)
			return 2
		}
		sides[i] = rs
	}

	d := report.DiffRunStats(sides[0], sides[1])
	fmt.Fprint(stdout, report.FormatDiff(d))

	if len(rules) == 0 {
		return 0
	}
	violations := report.GateDiff(d, rules)
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "fail-on: ok (%s)\n", *failOn)
		return 0
	}
	for _, v := range violations {
		fmt.Fprintln(stderr, "epoc-stats: fail-on:", v)
	}
	return 1
}

// runPromcheck strict-parses a scrape and checks required families.
func runPromcheck(args []string, require string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "epoc-stats: -promcheck wants exactly one file argument (- for stdin)")
		return 2
	}
	var (
		data []byte
		err  error
	)
	if args[0] == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "epoc-stats:", err)
		return 2
	}
	fams, err := metrics.Parse(string(data))
	if err != nil {
		fmt.Fprintln(stderr, "epoc-stats: promcheck:", err)
		return 1
	}
	present := map[string]bool{}
	names := make([]string, 0, len(fams))
	samples := 0
	for _, f := range fams {
		present[f.Name] = true
		names = append(names, f.Name)
		samples += len(f.Samples)
	}
	sort.Strings(names)
	var missing []string
	if require != "" {
		for _, want := range strings.Split(require, ",") {
			want = strings.TrimSpace(want)
			if want != "" && !present[want] {
				missing = append(missing, want)
			}
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "epoc-stats: promcheck: required families missing: %s (scrape has: %s)\n",
			strings.Join(missing, ", "), strings.Join(names, ", "))
		return 1
	}
	fmt.Fprintf(stdout, "promcheck: ok — %d families, %d samples\n", len(fams), samples)
	return 0
}
