package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseForSuppress(t *testing.T, src string) ([]*Suppression, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return collectSuppressions(fset, []*ast.File{f})
}

func TestCollectSuppressions(t *testing.T) {
	src := `package p

func f() {
	//simlint:ignore guardedby the lock is taken by the caller
	_ = 1
	//simlint:ignore guardedby
	_ = 2
	//simlint:ignore nosuchanalyzer a reason
	_ = 3
	//simlint:ignore
	_ = 4
	//simlint:ignored guardedby not a directive at all
	_ = 5
}
`
	sups, malformed := parseForSuppress(t, src)
	if len(sups) != 1 {
		t.Fatalf("got %d suppressions, want 1: %v", len(sups), sups)
	}
	s := sups[0]
	if s.Analyzer != "guardedby" || s.Reason != "the lock is taken by the caller" || s.Pos.Line != 4 {
		t.Errorf("unexpected suppression: %+v", s)
	}
	wantMalformed := []string{
		"a reason is mandatory",
		`unknown analyzer "nosuchanalyzer"`,
		"missing analyzer name",
	}
	if len(malformed) != len(wantMalformed) {
		t.Fatalf("got %d malformed, want %d: %v", len(malformed), len(wantMalformed), malformed)
	}
	for i, want := range wantMalformed {
		if malformed[i].Analyzer != "simlint" || !strings.Contains(malformed[i].Message, want) {
			t.Errorf("malformed[%d] = %s, want containing %q", i, malformed[i], want)
		}
	}
}

func TestApplySuppressions(t *testing.T) {
	diag := func(file string, line int, analyzer string) Diagnostic {
		return Diagnostic{Analyzer: analyzer, Pos: token.Position{Filename: file, Line: line}, Message: "m"}
	}
	sup := func(file string, line int, analyzer string) *Suppression {
		return &Suppression{Pos: token.Position{Filename: file, Line: line}, Analyzer: analyzer, Reason: "r"}
	}
	sups := []*Suppression{
		sup("a.go", 10, "guardedby"), // matches same line and line below
		sup("a.go", 50, "guardedby"), // matches nothing: stays unused
	}
	diags := []Diagnostic{
		diag("a.go", 10, "guardedby"),    // same line: suppressed
		diag("a.go", 11, "guardedby"),    // line below: suppressed
		diag("a.go", 12, "guardedby"),    // two lines below: kept
		diag("a.go", 10, "hotpathalloc"), // other analyzer: kept
		diag("b.go", 10, "guardedby"),    // other file: kept
	}
	kept, suppressed := applySuppressions(diags, sups)
	if len(kept) != 3 || len(suppressed) != 2 {
		t.Fatalf("kept %d suppressed %d, want 3 and 2", len(kept), len(suppressed))
	}
	for _, d := range suppressed {
		if !d.Suppressed || d.SuppressReason != "r" {
			t.Errorf("suppressed diagnostic missing state: %+v", d)
		}
	}
	if !sups[0].Used() {
		t.Error("matching suppression not marked used")
	}
	if sups[1].Used() {
		t.Error("non-matching suppression marked used")
	}
}

func TestSortDiags(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "b", Pos: token.Position{Filename: "x.go", Line: 5, Column: 2}},
		{Analyzer: "a", Pos: token.Position{Filename: "x.go", Line: 5, Column: 2}},
		{Analyzer: "c", Pos: token.Position{Filename: "x.go", Line: 5, Column: 1}},
		{Analyzer: "c", Pos: token.Position{Filename: "x.go", Line: 4, Column: 9}},
		{Analyzer: "c", Pos: token.Position{Filename: "w.go", Line: 9, Column: 9}},
	}
	sortDiags(diags)
	var got []string
	for _, d := range diags {
		got = append(got, d.Pos.String()+":"+d.Analyzer)
	}
	want := []string{
		"w.go:9:9:c",
		"x.go:4:9:c",
		"x.go:5:1:c",
		"x.go:5:2:a",
		"x.go:5:2:b",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d:\ngot  %v\nwant %v", i, got, want)
		}
	}
}
