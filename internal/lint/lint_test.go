package lint

import (
	"go/token"
	"testing"
)

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
