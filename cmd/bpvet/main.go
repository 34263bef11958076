// Command bpvet runs the repository's static-invariant analyzers
// (determinism, errcheck, exhaustive, hotpath, lockcheck, keytaint)
// over the given package patterns and exits non-zero if any diagnostic
// survives the //bpvet directives. It is the CI gate behind the
// engine's reproducibility, concurrency and zero-allocation
// guarantees; see internal/analysis for the framework and the
// directive grammar.
//
// Usage:
//
//	go run ./cmd/bpvet [flags] [packages]
//
// With no patterns, ./... is assumed. By default diagnostics print one
// per line as file:line:col: [analyzer] message, sorted by position.
//
//	-run list    run only the named analyzers (comma-separated)
//	-json        print the versioned JSON report to stdout
//	-github      print GitHub Actions ::error annotations to stdout
//	-out FILE    also write the JSON report to FILE, independent of
//	             what stdout shows
//	-fix         apply suggested fixes to the source files
//
// Exit status: 0 when no diagnostics remain (under -fix: when every
// diagnostic had an applicable fix), 1 on findings, 2 on operational
// failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xorbp/internal/analysis"
	"xorbp/internal/analysis/determinism"
	"xorbp/internal/analysis/errcheck"
	"xorbp/internal/analysis/exhaustive"
	"xorbp/internal/analysis/hotpath"
	"xorbp/internal/analysis/keytaint"
	"xorbp/internal/analysis/lockcheck"
)

var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	errcheck.Analyzer,
	exhaustive.Analyzer,
	hotpath.Analyzer,
	keytaint.Analyzer,
	lockcheck.Analyzer,
}

func main() {
	var (
		runList    = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		jsonOut    = flag.Bool("json", false, "print the JSON report to stdout")
		githubOut  = flag.Bool("github", false, "print GitHub Actions ::error annotations to stdout")
		outFile    = flag.String("out", "", "also write the JSON report to this file")
		applyFixes = flag.Bool("fix", false, "apply suggested fixes to the source files")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bpvet [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bpvet: "+format+"\n", args...)
		os.Exit(2)
	}
	selected, err := selectAnalyzers(*runList)
	if err != nil {
		fail("%v", err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fail("%v", err)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fail("%v", err)
	}
	// A filtered run disables the unused-directive ratchet: a directive
	// justifying a lockcheck finding is legitimately unused when only
	// keytaint runs.
	diags, err := analysis.RunWith(pkgs, selected, analysis.RunOpts{ReportUnused: *runList == ""})
	if err != nil {
		fail("%v", err)
	}

	report := analysis.NewReport(diags, wd)
	if *outFile != "" {
		if err := os.WriteFile(*outFile, report.EncodeJSON(), 0o644); err != nil {
			fail("%v", err)
		}
	}

	if *applyFixes {
		fixed, err := analysis.ApplyFixes(diags)
		if err != nil {
			fail("%v", err)
		}
		for file, content := range fixed {
			if err := os.WriteFile(file, content, 0o644); err != nil {
				fail("%v", err)
			}
		}
		var remaining []analysis.Diagnostic
		for _, d := range diags {
			if len(d.Fixes) == 0 {
				remaining = append(remaining, d)
			}
		}
		for _, d := range remaining {
			fmt.Println(d.String())
		}
		fmt.Fprintf(os.Stderr, "bpvet: fixed %d diagnostic(s) in %d file(s), %d not auto-fixable\n",
			len(diags)-len(remaining), len(fixed), len(remaining))
		if len(remaining) > 0 {
			os.Exit(1)
		}
		return
	}

	switch {
	case *jsonOut:
		os.Stdout.Write(report.EncodeJSON())
	case *githubOut:
		report.WriteGitHubAnnotations(os.Stdout)
	default:
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "bpvet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectAnalyzers resolves a -run list against the registry, keeping
// registry order; an empty list selects everything.
func selectAnalyzers(runList string) ([]*analysis.Analyzer, error) {
	if runList == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	var names []string
	for _, a := range analyzers {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if byName[name] == nil {
			return nil, fmt.Errorf("unknown analyzer %q (available: %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	var selected []*analysis.Analyzer
	for _, a := range analyzers {
		if want[a.Name] {
			selected = append(selected, a)
		}
	}
	return selected, nil
}
