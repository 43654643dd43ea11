// Package lint is the repo's static-analysis layer: a small, dependency-free
// workalike of golang.org/x/tools/go/analysis hosting the custom analyzers
// that machine-check the invariants the simulator's speed claims rest on
// (see DESIGN.md, "Static analysis"). The x/tools module is deliberately
// not imported — the framework runs on go/parser + go/types alone, so the
// lint suite builds in a hermetic environment with nothing but the Go
// toolchain.
//
// The shape mirrors go/analysis on purpose: an Analyzer bundles a name,
// documentation and a Run function over a Pass; a Pass exposes the parsed
// files, the type information and a Report sink. Porting an analyzer to the
// real framework is a mechanical import swap.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. By convention it is
	// a single lowercase word.
	Name string
	// Doc is the help text; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass is the interface between one analyzer and one package being
// analyzed. It is valid only for the duration of the Run call.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  msg,
	})
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// TypeOf returns the type of expression e, or nil if not found.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf returns the object denoted by ident (uses or defs).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// Run applies each analyzer to each package and returns every
// diagnostic sorted by (file, line, column, analyzer) — a total,
// run-independent order, so CI logs are stable. Analyzer errors (not
// diagnostics) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sortDiags(diags)
	return diags, nil
}

// sortDiags orders diagnostics by (file, line, column, analyzer,
// message) — deterministic across runs and analyzer registration order.
func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// All returns the full simlint analyzer suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc,
		ImmutablePlan,
		GuardedBy,
		GoroutineLife,
	}
}
