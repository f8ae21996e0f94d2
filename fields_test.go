package xcache

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// writeOnlyAllowed lists fields the guard below may find written but
// never read, each with the reason it stays.
var writeOnlyAllowed = map[string]string{
	"serve.Config.TickWorkers": "deprecated and inert; perfbench/workloads.go still sets it, so it goes with the next benchmark change",
}

// TestNoWriteOnlyFields fails when a struct field declared in non-test
// code under internal/ or cmd/ is assigned (=, op=, ++ or --) somewhere
// in the repository but read nowhere: state that costs a store on every
// path and informs nothing. Every .go file counts as a reader, tests and
// the perfbench module included. Fields with a json tag are skipped,
// since encoding/json reads them.
//
// Fields are matched by name only, with no type information, so the
// check is conservative: it never reports a field that is read, but it
// misses a write-only field whose name a field or method of another type
// shares and reads, such as hier's mxaJob.base beside memBridge.base,
// or approx's IntervalEstimate.Misses beside TagResult.Misses.
func TestNoWriteOnlyFields(t *testing.T) {
	type decl struct{ pkg, typ, field string }
	var decls []decl
	writes, reads := map[string]bool{}, map[string]bool{}
	stored := map[*ast.SelectorExpr]bool{} // assignment targets, not reads
	markWrite := func(lhs ast.Expr) {
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			writes[sel.Sel.Name] = true
			stored[sel] = true
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		model := !strings.HasSuffix(path, "_test.go") &&
			(strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/"))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !model || !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					if fld.Tag != nil && reflect.StructTag(strings.Trim(fld.Tag.Value, "`")).Get("json") != "" {
						continue
					}
					for _, name := range fld.Names {
						decls = append(decls, decl{f.Name.Name, n.Name.Name, name.Name})
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWrite(lhs)
				}
			case *ast.IncDecStmt:
				markWrite(n.X)
			case *ast.SelectorExpr:
				if !stored[n] {
					reads[n.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, d := range decls {
		name := d.pkg + "." + d.typ + "." + d.field
		if writes[d.field] && !reads[d.field] && writeOnlyAllowed[name] == "" {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d struct fields are written but never read; delete them or read them:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}
