//go:build ignore

// Unlinked lists the functions and methods that no binary of this
// repository links: every cmd, every example and benchmark/seerbench
// are built with inlining off (-gcflags=all=-l, so an inlined call
// cannot hide a linked function), their symbols are read with
// `go tool nm`, and each function declared in a non-test, non-main
// file outside benchmark/ that none of them contains is printed, one
// per line, as "<package dir> <Func>" or "<package dir> <Type>.<Method>".
// Exported functions and methods of the root package count as linked:
// they are the library API.
//
// Run it from the repository root:
//
//	go run scripts/unlinked.go                             # print the listing
//	go run scripts/unlinked.go -keep scripts/unlinked.keep # gate against a keep file
//
// With -keep it exits 1 when the listing and the keep file differ,
// naming each difference: a newly unlinked function must be deleted
// or kept with a reason, and a keep entry that is now linked or gone
// must be pruned. The keep file holds listing lines; blank lines and
// lines starting with '#' (the reasons) are ignored.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	keep := flag.String("keep", "", "keep file to compare the listing against")
	flag.Parse()
	if err := run(*keep); err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(1)
	}
}

func run(keepFile string) error {
	module, err := modulePath()
	if err != nil {
		return err
	}
	linked, err := linkedSymbols(module)
	if err != nil {
		return err
	}
	declared, err := declaredFuncs()
	if err != nil {
		return err
	}
	var listing []string
	for _, d := range declared {
		if d.api || linked[symbolKey(module, d.dir, d.name)] {
			continue
		}
		listing = append(listing, d.dir+" "+d.name)
	}
	sort.Strings(listing)
	if keepFile == "" {
		for _, l := range listing {
			fmt.Println(l)
		}
		fmt.Fprintf(os.Stderr, "unlinked: %d functions no binary links\n", len(listing))
		return nil
	}
	return check(listing, keepFile)
}

// check compares the listing with the keep file's entries, reporting
// every line that is in one but not the other.
func check(listing []string, keepFile string) error {
	data, err := os.ReadFile(keepFile)
	if err != nil {
		return err
	}
	keep := map[string]bool{}
	for _, l := range strings.Split(string(data), "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			keep[l] = true
		}
	}
	bad := 0
	for _, l := range listing {
		if !keep[l] {
			fmt.Fprintf(os.Stderr, "newly unlinked: %s (delete it, or keep it in %s under a reason)\n", l, keepFile)
			bad++
		}
		delete(keep, l)
	}
	var stale []string
	for l := range keep {
		stale = append(stale, l)
	}
	sort.Strings(stale)
	for _, l := range stale {
		fmt.Fprintf(os.Stderr, "linked or gone: %s (remove it from %s)\n", l, keepFile)
		bad++
	}
	if bad > 0 {
		return fmt.Errorf("%d differences between the listing and %s", bad, keepFile)
	}
	fmt.Fprintf(os.Stderr, "unlinked: the %d unlinked functions all match %s\n", len(listing), keepFile)
	return nil
}

func modulePath() (string, error) {
	out, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// linkedSymbols builds every binary and returns the set of function
// symbols under module, keyed as symbolKey keys them.
func linkedSymbols(module string) (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "unlinked")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// benchmark/ is a module of its own, so seerbench builds from there.
	builds := []struct {
		wd, out string
		pkgs    []string
	}{
		{".", dir + string(filepath.Separator), []string{"./cmd/...", "./examples/..."}},
		{"benchmark", filepath.Join(dir, "seerbench"), []string{"./seerbench"}},
	}
	for _, b := range builds {
		args := append([]string{"build", "-gcflags=all=-l", "-o", b.out}, b.pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = b.wd
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go %s in %s: %w", strings.Join(args, " "), b.wd, err)
		}
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", bin.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// "<addr> <type> <symbol>"; T and t are text (code)
			// symbols. A generic instantiation's symbol holds spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			if sym := f[2]; strings.HasPrefix(sym, module+".") || strings.HasPrefix(sym, module+"/") {
				linked[normalize(sym)] = true
			}
		}
	}
	return linked, nil
}

// normalize strips generic instantiations ("Queue[go.shape.int]" →
// "Queue") and pointer-receiver wrapping ("(*T).M" → "T.M"), so a
// symbol matches the key of the declaration it was compiled from.
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(b.String())
}

// symbolKey is the normalized symbol of function name declared in the
// package at dir (relative to the module root, "." for the root).
func symbolKey(module, dir, name string) string {
	if dir == "." {
		return module + "." + name
	}
	return module + "/" + dir + "." + name
}

type decl struct {
	dir  string // package directory relative to the module root
	name string // "Func" or "Type.Method"
	api  bool   // exported function or method of the root package
}

// declaredFuncs parses every non-test Go file outside benchmark/,
// scripts/ and testdata and returns the functions of non-main packages.
func declaredFuncs() ([]decl, error) {
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "benchmark" || path == "scripts") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, fd := range f.Decls {
			// An init function runs whenever its package links.
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || fn.Name.Name == "init" {
				continue
			}
			name, exported := fn.Name.Name, fn.Name.IsExported()
			if fn.Recv != nil {
				recv := receiverType(fn.Recv.List[0].Type)
				name = recv + "." + name
				exported = exported && ast.IsExported(recv)
			}
			out = append(out, decl{dir: dir, name: name, api: dir == "." && exported})
		}
		return nil
	})
	return out, err
}

// receiverType returns the bare type name of a method receiver:
// "*Queue[T]" → "Queue".
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		default:
			return e.(*ast.Ident).Name
		}
	}
}
