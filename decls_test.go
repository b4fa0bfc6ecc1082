package sliceline_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferencedAllowed lists internal declarations that only tests call,
// keyed "<package dir>.<name>", each with the reason it stays.
var unreferencedAllowed = map[string]string{
	"internal/bench.IDs":                "sorted experiment listing; only bench's own test calls it (a deletion candidate)",
	"internal/datagen.RegisterSeedFlag": "difftest's tests register -seed with it; cmd binaries define their own -seed",
	"internal/frame.WriteCSV":           "round-trip oracle for the CSV reader in frame's and datasets' tests",
	"internal/matrix.NewDenseData":      "builds dense test inputs and oracles in matrix, dist, faults, sim and slworker tests",
	"internal/matrix.CSRFromDense":      "builds CSR test partitions in matrix, dist, faults, sim and slworker tests",
	"internal/sim.DecodeReport":         "strict decoder for the report schema that sim's tests validate EncodeReport output with",
}

// TestNoUnreferencedInternalDecls fails for every package-level function or
// type under internal/ whose name no non-test file uses outside its own
// declaration. It is name-based on purpose: a name collision can hide a dead
// declaration but never fails a live one. Methods are out of scope, because
// interface implementations have no direct references. The test-support
// packages are excluded as declarers, not as users.
func TestNoUnreferencedInternalDecls(t *testing.T) {
	exempt := map[string]bool{"internal/difftest": true, "internal/faults": true, "internal/fptol": true}
	fset := token.NewFileSet()
	declared := map[string]token.Pos{} // "<dir>.<name>" -> position
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		collect := strings.HasPrefix(dir, "internal/") && !exempt[dir]
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				// A method's name and receiver are not uses; a func's own
				// name inside its body (recursion) is not one either.
				self := ""
				if decl.Recv == nil {
					self = decl.Name.Name
					if collect && self != "init" {
						declared[dir+"."+self] = decl.Name.Pos()
					}
				}
				markUses(used, decl.Type, self)
				if decl.Body != nil {
					markUses(used, decl.Body, self)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						markUses(used, spec, "")
						continue
					}
					if collect {
						declared[dir+"."+ts.Name.Name] = ts.Name.Pos()
					}
					if ts.TypeParams != nil {
						markUses(used, ts.TypeParams, ts.Name.Name)
					}
					markUses(used, ts.Type, ts.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for key, pos := range declared {
		name := key[strings.LastIndex(key, ".")+1:]
		_, allowed := unreferencedAllowed[key]
		switch {
		case !used[name] && !allowed:
			dead = append(dead, fset.Position(pos).String()+": "+name+" is referenced by no non-test file; delete it")
		case used[name] && allowed:
			dead = append(dead, fset.Position(pos).String()+": "+name+" is referenced now; drop it from unreferencedAllowed")
		}
	}
	for key := range unreferencedAllowed {
		if _, ok := declared[key]; !ok {
			dead = append(dead, key+" is allowlisted but not declared; drop it from unreferencedAllowed")
		}
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
}

// markUses records the name of every identifier under n, except bare uses of
// self: a qualified pkg.Name always names another package's declaration.
func markUses(used map[string]bool, n ast.Node, self string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			used[n.Sel.Name] = true
		case *ast.Ident:
			if n.Name != self {
				used[n.Name] = true
			}
		}
		return true
	})
}
