// Command vetfp is the repository's custom static checker. It enforces
// three invariants the standard toolchain cannot express:
//
//  1. nil-receiver safety: every pointer-receiver method on a type whose
//     name ends in "Metrics" must be safe to call on a nil receiver —
//     the observability layer's zero-overhead-when-off contract (a nil
//     *obs.Metrics is the disabled instance, and every accessor must
//     tolerate it). A method may dereference its receiver only after an
//     `if recv == nil { return ... }` guard or inside an
//     `if recv != nil { ... }` block.
//
//  2. exhaustive switches: every switch over core.AbortReason or
//     trace.MonitorEventKind must either cover all declared constants of
//     the type or carry a default clause, so adding an abort reason or a
//     monitor event kind cannot silently fall through existing handling.
//
//  3. order-free map ranges: no +=, -=, *= or /= on a floating-point
//     lvalue inside a for-range over a map (map order is random, float
//     sums are not associative), unless the lvalue is indexed by the
//     range key.
//
// The tool is deliberately standard-library only (x/tools is not
// vendored), so instead of speaking `go vet -vettool`'s unitchecker
// protocol it loads and type-checks the module itself: repro packages
// from source, dependencies through the gc export data that `go list
// -export` materializes in the build cache.
//
// Usage:
//
//	go run ./tools/vetfp ./...
//
// Exit status 1 when any diagnostic fires.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// modulePath reads the module path from go.mod in root.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// pkg is one loaded, type-checked package plus everything the checks
// need to inspect it.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks module packages from source and resolves external
// imports (std and toolchain) through gc export data located with
// `go list -export`. It implements types.Importer.
type loader struct {
	fset *token.FileSet
	mod  string
	root string
	ext  types.Importer
	pkgs map[string]*pkg
	done map[string]*types.Package
}

func newLoader(root, mod string) *loader {
	l := &loader{
		fset: token.NewFileSet(),
		mod:  mod,
		root: root,
		pkgs: map[string]*pkg{},
		done: map[string]*types.Package{},
	}
	l.ext = importer.ForCompiler(l.fset, "gc", lookupExport)
	return l
}

// lookupExport finds a package's gc export data via the go command.
// `go list -export` compiles the package into the build cache if needed
// and prints the export file path, so this works in a clean checkout
// with no network access.
func lookupExport(path string) (io.ReadCloser, error) {
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %w", path, err)
	}
	file := strings.TrimSpace(string(out))
	if file == "" {
		return nil, fmt.Errorf("no export data for %s", path)
	}
	return os.Open(file)
}

// Import implements types.Importer over both worlds.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if done := l.done[path]; done != nil {
		return done, nil
	}
	if path == l.mod || strings.HasPrefix(path, l.mod+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	tp, err := l.ext.Import(path)
	if err != nil {
		return nil, err
	}
	l.done[path] = tp
	return tp, nil
}

// load parses and type-checks one module package from source. Test
// files are excluded: the invariants under check are production-code
// contracts, and external-test packages would need a second pass.
func (l *loader) load(path string) (*pkg, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	dir := l.root
	if path != l.mod {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.mod+"/")))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	p := &pkg{path: path, files: files, types: tp, info: info}
	l.pkgs[path] = p
	l.done[path] = tp
	return p, nil
}

// packageDirs walks the module for package directories, skipping
// testdata, hidden directories, and the tools themselves (vetfp checks
// the production tree; checking the checker is the test's job).
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "tools") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
			return filepath.SkipDir // a nested module, as go vet ./... skips it
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				return nil
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

func main() {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetfp:", err)
		os.Exit(2)
	}
	mod, err := modulePath(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetfp:", err)
		os.Exit(2)
	}
	dirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetfp:", err)
		os.Exit(2)
	}

	l := newLoader(root, mod)
	var diags []diagnostic
	for _, dir := range dirs {
		path := mod
		if dir != root {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vetfp:", err)
				os.Exit(2)
			}
			path = mod + "/" + filepath.ToSlash(rel)
		}
		p, err := l.load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vetfp: %v\n", err)
			os.Exit(2)
		}
		diags = append(diags, checkPackage(l.fset, p)...)
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].pos.String() < diags[j].pos.String() })
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", d.pos, d.check, d.msg)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
