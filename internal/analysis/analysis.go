// Package analysis implements manetsim's custom static-analysis suite: a
// small, dependency-free framework in the spirit of golang.org/x/tools'
// go/analysis (which is not vendored here) plus five project-specific
// analyzers that encode the repo's determinism, refcount, reset and
// hot-path invariants as compiler-adjacent checks:
//
//   - wallclock:     no time.Now/Since/Sleep in simulation packages — sim
//     time must flow from the scheduler.
//   - globalrand:    no package-level math/rand state or constant-seeded
//     sources in result-affecting code — RNG must be threaded from Config
//     seeds or the per-link streams.
//   - maporder:      no map iteration that feeds Result-reachable data,
//     serialization or event scheduling without sorting keys first.
//   - resetcomplete: every field of a struct with a Reset method is either
//     assigned in Reset or explicitly marked //manetsim:resetsafe, and a
//     New* constructor of such a struct ends by calling its Reset.
//   - hotpathalloc:  no closure literals, fmt.Sprintf or method-value
//     captures in //manetsim:hotpath functions, and no closures passed to
//     scheduler APIs that have closure-free AtFunc/AfterFunc counterparts.
//
// The suite runs standalone (`manetsimvet ./...`) or as a `go vet
// -vettool` plugin; see cmd/manetsimvet. Deliberate exceptions are
// annotated in source with directives:
//
//	//manetsim:allow <analyzer>   on the offending line (or the line above)
//	//manetsim:resetsafe          on a struct field Reset intentionally keeps
//	//manetsim:hotpath            marks a function as an allocation-free hot path
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite could migrate to the
// real framework if the dependency ever becomes available.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass holds one type-checked package and collects diagnostics from one
// analyzer run over it.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // all parsed files, including _test.go
	Pkg       *types.Package
	TypesInfo *types.Info

	// SimPackage reports whether this package is part of the
	// result-affecting simulation core (see IsSimPackage). Most analyzers
	// only apply there.
	SimPackage bool

	directives map[string]map[int][]string // filename -> line -> directives
	report     func(Diagnostic)
}

// Reportf records a diagnostic at pos unless an //manetsim:allow directive
// for this analyzer covers the line (or the line above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// NonTestFiles returns the package files excluding _test.go files. Every
// analyzer in the suite exempts test code: fixed-seed rand.New, wall-clock
// timing and ad-hoc map iteration are all legitimate in tests.
func (p *Pass) NonTestFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.FileStart).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// Directive names understood by the suite.
const (
	dirAllow     = "allow"
	dirResetSafe = "resetsafe"
	dirHotPath   = "hotpath"
)

// buildDirectives indexes every //manetsim:<name> [arg] comment by file and
// line so directive checks are O(1) at report time.
func (p *Pass) buildDirectives() {
	p.directives = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//manetsim:")
				if !ok {
					continue
				}
				// Normalize "allow maporder" to "allow:maporder" so a
				// directive is a single token; any further words are a
				// free-form justification and ignored.
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				d := fields[0]
				if d == dirAllow && len(fields) > 1 {
					d += ":" + fields[1]
				}
				pos := p.Fset.Position(c.Pos())
				lines := p.directives[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					p.directives[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
			}
		}
	}
}

// hasDirective reports whether directive d appears on the given line or the
// line immediately above it (the doc-comment position).
func (p *Pass) hasDirective(d string, position token.Position) bool {
	lines := p.directives[position.Filename]
	if lines == nil {
		return false
	}
	for _, got := range lines[position.Line] {
		if got == d {
			return true
		}
	}
	for _, got := range lines[position.Line-1] {
		if got == d {
			return true
		}
	}
	return false
}

func (p *Pass) allowed(analyzer string, position token.Position) bool {
	return p.hasDirective(dirAllow+":"+analyzer, position)
}

// ResetSafe reports whether the field declared at pos carries a
// //manetsim:resetsafe directive.
func (p *Pass) ResetSafe(pos token.Pos) bool {
	return p.hasDirective(dirResetSafe, p.Fset.Position(pos))
}

// HotPath reports whether the function declaration is marked
// //manetsim:hotpath, either inside its doc comment or on the line above
// the declaration.
func (p *Pass) HotPath(fn *ast.FuncDecl) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if strings.HasPrefix(c.Text, "//manetsim:"+dirHotPath) {
				return true
			}
		}
	}
	return p.hasDirective(dirHotPath, p.Fset.Position(fn.Pos()))
}

// simPackages is the set of result-affecting simulation packages: every
// byte of golden-digest output flows through them, so the determinism
// analyzers treat them as load-bearing.
var simPackages = map[string]bool{
	"sim": true, "phy": true, "mac": true, "aodv": true,
	"tcp": true, "udp": true, "node": true, "core": true,
	"fault": true, "linkmodel": true, "mobility": true,
	"stats": true, "pkt": true, "geo": true,
}

// IsSimPackage reports whether importPath names one of the simulation-core
// packages the determinism invariants apply to.
func IsSimPackage(importPath string) bool {
	rest, ok := strings.CutPrefix(importPath, "manetsim/internal/")
	if !ok {
		return false
	}
	return simPackages[rest]
}

// NewPass assembles a Pass for one analyzer over one type-checked package.
// The caller supplies sink to collect diagnostics.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, simPkg bool, sink func(Diagnostic)) *Pass {
	p := &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		SimPackage: simPkg,
		report:     sink,
	}
	p.buildDirectives()
	return p
}

// RunSuite runs every analyzer in analyzers over the package and returns
// the diagnostics sorted by position.
func RunSuite(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, simPkg bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := NewPass(a, fset, files, pkg, info, simPkg, func(d Diagnostic) {
			diags = append(diags, d)
		})
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Suite returns the full manetsimvet analyzer suite.
func Suite() []*Analyzer {
	return []*Analyzer{
		WallClock,
		GlobalRand,
		MapOrder,
		ResetComplete,
		HotPathAlloc,
	}
}

// funcObj resolves a call's callee to a *types.Func, unwrapping parens.
// Returns nil for builtins, conversions and indirect calls.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// pkgPathOf returns the import path of a function's defining package, or ""
// for builtins.
func pkgPathOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isSchedulerPkg matches the sim kernel package (and the sim stub used by
// the analyzer testdata): the package whose Scheduler owns simulated time.
func isSchedulerPkg(path string) bool {
	return path == "sim" || strings.HasSuffix(path, "/sim")
}
