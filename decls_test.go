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
// keyed "<package dir>.<name>" or "<package dir>.<receiver>.<method>", each
// with the reason it stays.
var unreferencedAllowed = map[string]string{
	"internal/datagen.RegisterSeedFlag": "difftest's tests register -seed with it; cmd binaries define their own -seed",
	"internal/frame.WriteCSV":           "round-trip oracle for the CSV reader in frame's and datasets' tests",
	"internal/matrix.NewDenseData":      "builds dense test inputs and oracles in matrix, dist, faults, sim and slworker tests",
	"internal/matrix.CSRFromDense":      "builds CSR test partitions in matrix, dist, faults, sim and slworker tests",
	"internal/sim.DecodeReport":         "strict decoder for the report schema that sim's tests validate EncodeReport output with",

	"internal/baseline.(*Tree).Leaves":           "every leaf in mean-error order; the tree tests check the partition with it, production reads WorstLeaves",
	"internal/baseline.(*Tree).Depth":            "the tree tests check MaxDepth with it",
	"internal/core.(*Incremental).Stats":         "memo hit/miss counts that the streaming differential test asserts reuse with",
	"internal/dist.(*Cluster).LiveMembers":       "the membership tests read a fleet's view through it",
	"internal/membership.(*Announcer).Announces": "the announcer tests wait for delivered announces with it",
	"internal/obs.(*Span).AttrInt":               "span-attribute reader the dist, difftest and obs tests check traces with",
}

// stdlibMethods are method names that standard-library interfaces call, so
// an implementation needs no reference in this repository's code.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	// net/rpc.ServerCodec, implemented by dist's countingCodec.
	"ReadRequestHeader": true, "ReadRequestBody": true, "WriteResponse": true,
	// sort.Interface and container/heap.Interface.
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoUnreferencedInternalDecls fails for every package-level function or
// type, and every method, under internal/ whose name no non-test file uses
// outside its own declaration. It is name-based on purpose: a name collision
// can hide a dead declaration but never fails a live one. A method whose
// name an interface in the repository declares counts as used, and so do
// the names standard-library interfaces call (stdlibMethods). The
// test-support packages are excluded as declarers, not as users.
func TestNoUnreferencedInternalDecls(t *testing.T) {
	exempt := map[string]bool{"internal/difftest": true, "internal/faults": true, "internal/fptol": true}
	fset := token.NewFileSet()
	declared := map[string]token.Pos{} // "<dir>.<name>" or "<dir>.<recv>.<name>" -> position
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
				switch {
				case decl.Recv != nil:
					if collect && !stdlibMethods[decl.Name.Name] {
						declared[dir+"."+recvName(decl.Recv)+"."+decl.Name.Name] = decl.Name.Pos()
					}
				default:
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
		decl := key[strings.Index(key, ".")+1:]
		_, allowed := unreferencedAllowed[key]
		switch {
		case !used[name] && !allowed:
			dead = append(dead, fset.Position(pos).String()+": "+decl+" is referenced by no non-test file; delete it")
		case used[name] && allowed:
			dead = append(dead, fset.Position(pos).String()+": "+decl+" is referenced now; drop it from unreferencedAllowed")
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

// recvName renders a method receiver's type as "(*T)" or "T".
func recvName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	star, ok := typ.(*ast.StarExpr)
	if ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if ok {
		return "(*" + name + ")"
	}
	return name
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
