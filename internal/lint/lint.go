// Package lint is a small, dependency-free analysis framework in the spirit
// of golang.org/x/tools/go/analysis, built on the standard library's go/ast
// and go/types only (the module vendors no third-party code). It exists to
// host the repo-specific robustlint analyzers: every invariant the
// reproduction's guarantees rest on — bit-identical adversarial-robustness
// verdicts, split-seeded copy independence, zero-alloc ingest — is enforced
// by an Analyzer in a subpackage, and cmd/robustlint runs them all as a CI
// gate.
//
// The framework deliberately mirrors the x/tools API shape (Analyzer with a
// Run func over a Pass carrying files, type info and a Report hook) so the
// analyzers port mechanically if the dependency ever becomes available.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked package
// through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "detsource").
	Name string
	// Doc is a one-paragraph description of the contract the analyzer
	// enforces, shown by cmd/robustlint -help.
	Doc string
	// Run performs the analysis. Implementations report findings through
	// the Pass and return an error only for internal failures.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax, including in-package _test.go files.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds the type-checker's resolution maps for Files.
	Info *types.Info
	// Report receives each diagnostic. The driver sets it.
	Report func(Diagnostic)

	directives map[string]map[int][]Directive // file -> line -> directives
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Directive is one parsed //robust: comment.
type Directive struct {
	// Tag is the word after "robust:" — "nondet", "hotpath", "alloc",
	// "panics", "universe-check", "codec-version", "codec-pair", "atomic",
	// "root".
	Tag string
	// Reason is the rest of the comment. Suppression tags require one.
	Reason string
	// Pos is the comment's position.
	Pos token.Pos
}

// Tags that suppress a finding and therefore must carry an audit reason.
var reasonRequired = map[string]bool{
	"nondet":     true,
	"alloc":      true,
	"panics":     true,
	"codec-pair": true,
	"atomic":     true,
	"root":       true,
}

// knownTags is the full directive grammar; anything else is a typo and is
// reported by CheckDirectives so a misspelled suppression cannot silently
// turn a check off.
var knownTags = map[string]bool{
	"nondet":         true,
	"hotpath":        true,
	"alloc":          true,
	"panics":         true,
	"universe-check": true,
	"codec-version":  true,
	"codec-pair":     true,
	"atomic":         true,
	"root":           true,
}

var directiveRe = regexp.MustCompile(`^//robust:([a-z-]+)\s*(.*)$`)

// ParseDirective parses one comment, reporting whether it is a //robust:
// directive at all.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	m := directiveRe.FindStringSubmatch(c.Text)
	if m == nil {
		return Directive{}, false
	}
	return Directive{Tag: m[1], Reason: strings.TrimSpace(m[2]), Pos: c.Pos()}, true
}

// buildDirectives indexes every //robust: comment by file and line.
func (p *Pass) buildDirectives() {
	if p.directives != nil {
		return
	}
	p.directives = make(map[string]map[int][]Directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := ParseDirective(c)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]Directive)
					p.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
}

// DirectivesAt returns the directives attached to pos's line: on the line
// itself or on the line directly above it.
func (p *Pass) DirectivesAt(pos token.Pos) []Directive {
	p.buildDirectives()
	position := p.Fset.Position(pos)
	byLine := p.directives[position.Filename]
	if byLine == nil {
		return nil
	}
	var out []Directive
	out = append(out, byLine[position.Line]...)
	out = append(out, byLine[position.Line-1]...)
	return out
}

// Suppressed reports whether a finding at pos is suppressed by a
// //robust:<tag> directive: on the finding's line, the line above it, or in
// the doc comment of the enclosing function declaration. A suppression with
// a missing reason still suppresses — CheckDirectives reports the missing
// reason separately, so the audit trail stays mandatory without double
// findings.
func (p *Pass) Suppressed(pos token.Pos, tag string) bool {
	for _, d := range p.DirectivesAt(pos) {
		if d.Tag == tag {
			return true
		}
	}
	if decl := p.EnclosingFunc(pos); decl != nil {
		if _, ok := p.FuncDirective(decl, tag); ok {
			return true
		}
	}
	return false
}

// FuncDirective reports whether decl carries //robust:<tag> in its doc
// comment or on the line above its declaration, returning the reason.
func (p *Pass) FuncDirective(decl *ast.FuncDecl, tag string) (string, bool) {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if d, ok := ParseDirective(c); ok && d.Tag == tag {
				return d.Reason, true
			}
		}
	}
	for _, d := range p.DirectivesAt(decl.Pos()) {
		if d.Tag == tag {
			return d.Reason, true
		}
	}
	return "", false
}

// LitDirective reports whether a function literal carries //robust:<tag> on
// its own line or the line above — the annotation form for hot-path closures
// (the router batch lanes), which have no FuncDecl to hang a doc comment on.
func (p *Pass) LitDirective(lit *ast.FuncLit, tag string) (string, bool) {
	for _, d := range p.DirectivesAt(lit.Pos()) {
		if d.Tag == tag {
			return d.Reason, true
		}
	}
	return "", false
}

// EnclosingFunc returns the innermost function declaration containing pos,
// or nil.
func (p *Pass) EnclosingFunc(pos token.Pos) *ast.FuncDecl {
	for _, f := range p.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// CheckDirectives validates the //robust: comment grammar across the pass's
// files: unknown tags and suppressions without a reason are findings, so
// every opt-out stays auditable. It is invoked by cmd/robustlint as part of
// every run (the analyzers themselves only consume directives).
func CheckDirectives(p *Pass) {
	p.buildDirectives()
	type entry struct {
		file string
		line int
		d    Directive
	}
	var all []entry
	for file, byLine := range p.directives {
		for line, ds := range byLine {
			for _, d := range ds {
				all = append(all, entry{file, line, d})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].file != all[j].file {
			return all[i].file < all[j].file
		}
		return all[i].line < all[j].line
	})
	for _, e := range all {
		if !knownTags[e.d.Tag] {
			p.Reportf(e.d.Pos, "unknown //robust:%s directive (known: alloc, atomic, codec-pair, codec-version, hotpath, nondet, panics, root, universe-check)", e.d.Tag)
			continue
		}
		if reasonRequired[e.d.Tag] && e.d.Reason == "" {
			p.Reportf(e.d.Pos, "//robust:%s suppression needs a reason — opt-outs must be auditable", e.d.Tag)
		}
	}
}
