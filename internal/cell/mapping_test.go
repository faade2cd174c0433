package cell_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// mappingHomes may map knobs to a machine or compile a kernel by hand:
// the pipeline defines the configuration, this package is the one mapping,
// and the examples show the raw API. perfbench/cells.go keeps its own
// mapping until the benchmark change that moves A3's and X1's runs into the
// suite, when it becomes a Spec too.
var mappingHomes = []string{"internal/pipeline/", "internal/cell/", "examples/", "perfbench/"}

// TestOneConfigMapping fails when non-test code outside mappingHomes sizes a
// machine (WithIQSize), switches its reuse mechanism (an assignment to
// Reuse.Enabled) or compiles a kernel (compiler.Compile). Such code belongs
// in cell.Spec's Config or Program.
func TestOneConfigMapping(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if name := d.Name(); rel != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		for _, home := range mappingHomes {
			if strings.HasPrefix(rel, home) {
				return nil
			}
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if sel.Sel.Name == "WithIQSize" || isSelector(sel, "compiler", "Compile") {
						t.Errorf("%s: a call to %s builds a machine or program by hand; use cell.Spec", fset.Position(n.Pos()), sel.Sel.Name)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Enabled" {
						if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "Reuse" {
							t.Errorf("%s: assignment to Reuse.Enabled maps knobs by hand; use cell.Spec", fset.Position(n.Pos()))
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func isSelector(sel *ast.SelectorExpr, pkg, name string) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
}
