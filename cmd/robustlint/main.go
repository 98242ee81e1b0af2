// Command robustlint runs the repo-specific analyzers from internal/lint
// over the module and fails if any contract is violated. It is the CI gate
// behind the invariants DESIGN.md states in prose: determinism-contract
// packages draw no out-of-tree randomness or wall-clock values (detsource),
// atomically accessed fields are never touched plainly (atomicmix), public
// packages fail through sentinel errors instead of panics (sentinelerr),
// //robust:hotpath functions stay zero-alloc and registered in the golden
// list (hotpathalloc), snapshot codecs keep unique frame kinds, paired
// Snapshot/Restore methods, universe validation on restore, and pinned
// codec versions (snapshotframe), and every function is reached from a main
// package, an init, the public API or a //robust:root (deadcode).
//
// Usage:
//
//	robustlint [-list] [packages...]
//
// Packages default to ./... resolved against the current directory.
// deadcode is a whole-program check, so it runs only when the pattern is
// exactly ./... and the current directory is the module root; a partial
// load has no roots. Exit status is 1 when any analyzer reports a finding, 2 on a
// driver failure (unparseable source, type errors). Findings print as
//
//	path/file.go:line:col: [analyzer] message
//
// Suppressions are //robust: directives (see internal/lint); robustlint
// also validates the directive grammar itself, so a misspelled opt-out is a
// finding rather than a silent no-op.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"robustsample/internal/lint"
	"robustsample/internal/lint/atomicmix"
	"robustsample/internal/lint/deadcode"
	"robustsample/internal/lint/detsource"
	"robustsample/internal/lint/hotpathalloc"
	"robustsample/internal/lint/loader"
	"robustsample/internal/lint/sentinelerr"
	"robustsample/internal/lint/snapshotframe"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*lint.Analyzer{
	detsource.Analyzer,
	atomicmix.Analyzer,
	sentinelerr.Analyzer,
	hotpathalloc.Analyzer,
	snapshotframe.Analyzer,
}

// directiveChecker validates the //robust: grammar as a pseudo-analyzer so
// its findings carry a name like the others.
var directiveChecker = &lint.Analyzer{
	Name: "directives",
	Doc:  "//robust: comments must use known tags, and suppressions must carry a reason",
	Run: func(p *lint.Pass) error {
		lint.CheckDirectives(p)
		return nil
	},
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: robustlint [-list] [packages...]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range append([]*lint.Analyzer{directiveChecker}, analyzers...) {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-14s %s\n", deadcode.Name, deadcode.Doc)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "robustlint: %v\n", err)
		os.Exit(2)
	}

	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range append([]*lint.Analyzer{directiveChecker}, analyzers...) {
			pass := &lint.Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Report:   func(d lint.Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "robustlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				os.Exit(2)
			}
		}
	}

	// deadcode needs every root, so only a load of the whole module counts.
	if _, err := os.Stat("go.mod"); err == nil && len(patterns) == 1 && patterns[0] == "./..." {
		diags = append(diags, deadcode.Run(pkgs)...)
	}

	// The directive checker runs once per package, but an external-test
	// variant shares source files with its base package's _test.go set only
	// when the files are in-package; duplicates cannot arise from that split.
	// Still, de-duplicate defensively on position+message so one finding is
	// one line.
	seen := make(map[string]bool, len(diags))
	var out []lint.Diagnostic
	for _, d := range diags {
		key := d.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Message < out[j].Message
	})
	for _, d := range out {
		fmt.Println(d.String())
	}
	if len(out) > 0 {
		fmt.Fprintf(os.Stderr, "robustlint: %d finding(s)\n", len(out))
		os.Exit(1)
	}
}
