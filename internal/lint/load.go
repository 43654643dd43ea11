package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Standard   bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Loader resolves and type-checks packages from source, with no
// dependency beyond the go toolchain: package metadata comes from
// `go list`, and every package — the module's and the standard library's
// alike — is type-checked from its source files. Loaded packages are
// cached, so one Loader amortizes the standard-library closure across
// many Load calls (the fixture runner leans on this).
type Loader struct {
	// Dir is the directory go list runs in (the module root, or any
	// directory inside the module).
	Dir string

	fset  *token.FileSet
	meta  map[string]*listPkg       // import path -> metadata
	types map[string]*types.Package // import path -> checked package
	pkgs  map[string]*Package       // import path -> full load (module pkgs)
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:   dir,
		fset:  token.NewFileSet(),
		meta:  map[string]*listPkg{},
		types: map[string]*types.Package{},
		pkgs:  map[string]*Package{},
	}
}

// goList runs `go list -e -json` with the given extra arguments and
// merges the streamed package objects into the metadata table, returning
// them in listing order.
func (l *Loader) goList(args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json=Dir,ImportPath,Standard,GoFiles,Error"}, args...)...)
	cmd.Dir = l.Dir
	// Pure-Go file lists: packages that would use cgo (net, os/user)
	// must type-check from their fallback sources.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	var listed []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if prev, ok := l.meta[p.ImportPath]; !ok || len(prev.GoFiles) == 0 {
			l.meta[p.ImportPath] = p
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// Load lists the packages matching the patterns (any form `go list`
// accepts, e.g. "./..." or explicit import paths), type-checks them and
// their whole dependency closure from source, and returns the matched
// packages in listing order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	roots, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	if _, err := l.goList(append([]string{"-deps"}, patterns...)...); err != nil {
		return nil, err
	}
	var out []*Package
	for _, r := range roots {
		if r.Error != nil && len(r.GoFiles) == 0 {
			return nil, fmt.Errorf("go list: %s: %s", r.ImportPath, r.Error.Err)
		}
		if len(r.GoFiles) == 0 {
			continue // nothing to analyze (e.g. test-only package)
		}
		p, err := l.load(r.ImportPath)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// resolve finds the metadata for an import path, consulting the GOROOT
// vendor namespace (net/http depends on golang.org/x/... packages that
// `go list` reports under vendor/golang.org/x/...), and falling back to
// an on-demand `go list` for paths outside every closure seen so far.
func (l *Loader) resolve(path string) (*listPkg, error) {
	if p, ok := l.meta[path]; ok {
		return p, nil
	}
	if p, ok := l.meta["vendor/"+path]; ok {
		return p, nil
	}
	if _, err := l.goList("-deps", path); err != nil {
		return nil, err
	}
	if p, ok := l.meta[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("lint: unknown package %q", path)
}

// Import implements types.Importer over the loader: packages are
// type-checked from source on first use and cached.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := l.types[path]; ok {
		return tp, nil
	}
	meta, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	if tp, ok := l.types[meta.ImportPath]; ok {
		l.types[path] = tp
		return tp, nil
	}
	// Module packages always take the full load path so that the package
	// type-checked for analysis and the one seen by its importers are the
	// same identity; stdlib packages are never analysis roots, so a light
	// check (no types.Info) suffices.
	if !meta.Standard {
		p, err := l.load(meta.ImportPath)
		if err != nil {
			return nil, err
		}
		l.types[path] = p.Types
		return p.Types, nil
	}
	files, err := l.parseFiles(meta.Dir, meta.GoFiles)
	if err != nil {
		return nil, err
	}
	tp, err := l.check(meta.ImportPath, files, nil)
	if err != nil {
		return nil, err
	}
	l.types[meta.ImportPath] = tp
	l.types[path] = tp
	return tp, nil
}

// load fully loads one module package: parse with comments, type-check
// with a populated types.Info, cache.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	meta, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(meta.Dir, meta.GoFiles)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	tp, err := l.check(meta.ImportPath, files, info)
	if err != nil {
		return nil, err
	}
	l.types[meta.ImportPath] = tp
	p := &Package{
		PkgPath:   meta.ImportPath,
		Fset:      l.fset,
		Syntax:    files,
		Types:     tp,
		TypesInfo: info,
	}
	l.pkgs[path] = p
	return p, nil
}

// CheckDir parses and type-checks the .go files of a directory outside
// the go-list universe (analyzer testdata fixtures live under testdata/,
// which the go tool refuses to list) as a package with the given import
// path. Fixture imports resolve through the loader like any other.
func (l *Loader) CheckDir(pkgPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !e.IsDir() {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	files, err := l.parseFiles(dir, names)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	tp, err := l.check(pkgPath, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		PkgPath:   pkgPath,
		Fset:      l.fset,
		Syntax:    files,
		Types:     tp,
		TypesInfo: info,
	}, nil
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tp, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
