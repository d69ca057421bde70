package analyze

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/sim").
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions every file in the load.
	Fset *token.FileSet
	// Files are the non-test syntax trees, sorted by filename.
	Files []*ast.File
	// Types and Info are the type checker's output.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without golang.org/x/tools:
// intra-module imports are type-checked from source (the checks need
// their syntax trees) in topological order, and every other import is
// read by go/importer's "gc" importer from the compiler export data
// that one `go list -export -deps` call reports.
type Loader struct {
	Fset *token.FileSet
	// Module is the module path from go.mod.
	Module string
	// std reads non-module imports from the export files in exports.
	std types.Importer
	// exports maps import paths to export data files.
	exports map[string]string
	// checked caches finished packages by import path.
	checked map[string]*Package
	// dirOf maps registered import paths to directories.
	dirOf map[string]string
	// parsed holds each directory's syntax trees until it is checked.
	parsed map[string][]*ast.File
}

// NewLoader returns a loader rooted at the module whose path is module.
func NewLoader(module string) *Loader {
	l := &Loader{
		Fset:    token.NewFileSet(),
		Module:  module,
		checked: map[string]*Package{},
		dirOf:   map[string]string{},
		parsed:  map[string][]*ast.File{},
	}
	l.std = importer.ForCompiler(l.Fset, "gc", l.openExport)
	return l
}

// ModulePath reads the module path from the go.mod in dir.
func ModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analyze: no module line in %s/go.mod", dir)
}

// LoadTree loads every package under root (the module root), skipping
// testdata, hidden directories and _test.go files, and returns the
// packages in directory order.
func (l *Loader) LoadTree(root string) ([]*Package, error) {
	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}
	var paths []string
	external := map[string]bool{}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, path)
		l.dirOf[path] = dir
		files, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		l.parsed[dir] = files
		for _, f := range files {
			for _, imp := range f.Imports {
				if ipath := strings.Trim(imp.Path.Value, `"`); !l.inModule(ipath) {
					external[ipath] = true
				}
			}
		}
	}
	if l.exports, err = exportFiles(root, external); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	// load recurses into intra-module imports before checking the
	// importer, so type-checking order is topological regardless of the
	// (sorted, deterministic) order packages are returned in.
	return pkgs, nil
}

// inModule reports whether path names a package of the loaded module.
func (l *Loader) inModule(path string) bool {
	return path == l.Module || strings.HasPrefix(path, l.Module+"/")
}

// exportFiles runs `go list -export -deps` once, in dir, over the
// given import paths and returns each listed package's export data
// file.
func exportFiles(dir string, paths map[string]bool) (map[string]string, error) {
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports, nil
	}
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}, slices.Sorted(maps.Keys(paths))...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analyze: go list -export: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// openExport opens the export data of the non-module import path.
func (l *Loader) openExport(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("analyze: no export data for %q", path)
	}
	return os.Open(file)
}

// load type-checks the package registered at path (and, recursively,
// any intra-module dependencies). It returns nil for a directory with
// no buildable Go files.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirOf[path]
	if !ok {
		return nil, fmt.Errorf("analyze: import %q is not under the loaded tree", path)
	}
	files := l.parsed[dir]
	if len(files) == 0 {
		l.checked[path] = nil
		return nil, nil
	}
	// Check intra-module imports first so the importer below finds them.
	for _, f := range files {
		for _, imp := range f.Imports {
			if ipath := strings.Trim(imp.Path.Value, `"`); l.inModule(ipath) {
				if _, err := l.load(ipath); err != nil {
					return nil, err
				}
			}
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.checked[path] = pkg
	return pkg, nil
}

// importPkg resolves an import for the type checker: module-local
// packages from the loader's cache, everything else from export data.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if l.inModule(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analyze: %q has no Go files", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseDir parses the non-test Go files of one directory, sorted by
// name for deterministic declaration order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// goDirs returns every directory under root that contains at least one
// non-test Go file, in sorted order.
func goDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}
