package driver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkerPathStartsNoGoroutine: no package a worker runs — its format,
// its scan, its engine, its exchange, its plan and the driver that hands it
// out — holds a go statement or a channel type outside its tests. A worker
// has one vCPU at the paper's default memory size (§4.1), and a DES process
// is one thread of control; a host thread on this path needs a measured case
// of its own.
func TestWorkerPathStartsNoGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"columnar", "lpq", "s3fs", "scan", "engine", "exchange", "stageplan", "driver"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("package %s: no Go files", pkg)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement on the worker path", fset.Position(n.Pos()))
				case *ast.ChanType:
					t.Errorf("%s: channel on the worker path", fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
}
