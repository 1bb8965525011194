package driver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestWorkerPathStartsNoGoroutine: no package a worker runs — its format,
// its scan, its engine, its exchange, its plan, the worker itself and the
// driver that hands it out — holds a go statement or a channel type outside
// its tests. A worker has one vCPU at the paper's default memory size
// (§4.1), and a DES process is one thread of control; a host thread on this
// path needs a measured case of its own.
func TestWorkerPathStartsNoGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"columnar", "lpq", "s3fs", "scan", "engine", "exchange", "stageplan", "worker", "driver"} {
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

// TestWorkerImportsNoDriver: the worker is a program of its own (§3.3), and
// its invocation parameters are all it gets. Neither internal/worker nor any
// package it imports imports internal/driver, so a worker cannot read the
// driver's state.
func TestWorkerImportsNoDriver(t *testing.T) {
	out, err := exec.Command("go", "list", "-e", "-deps", "lambada/internal/worker").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "lambada/internal/worker") {
		t.Fatalf("go list named no worker package: %v", deps)
	}
	if slices.Contains(deps, "lambada/internal/driver") {
		t.Error("internal/worker builds on internal/driver")
	}
}

// TestOneEntrance: the driver is a Session, and a query enters it one way —
// Run, or RunSQL / RunSQLStaged on query text. No other exported function or
// method of the package returns a query result, and no type named Driver
// fronts the Session.
func TestOneEntrance(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var entrances []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Driver" {
						t.Errorf("%s: a type named Driver fronts the Session", fset.Position(ts.Pos()))
					}
				}
			case *ast.FuncDecl:
				if !decl.Name.IsExported() || decl.Type.Results == nil {
					continue
				}
				var results []string
				for _, r := range decl.Type.Results.List {
					for range max(len(r.Names), 1) {
						results = append(results, types.ExprString(r.Type))
					}
				}
				if !slices.Equal(results, []string{"*columnar.Chunk", "*Report", "error"}) {
					continue
				}
				name := decl.Name.Name
				if decl.Recv != nil {
					name = strings.TrimPrefix(types.ExprString(decl.Recv.List[0].Type), "*") + "." + name
				}
				entrances = append(entrances, name)
			}
		}
	}
	slices.Sort(entrances)
	if want := []string{"Session.Run", "Session.RunSQL", "Session.RunSQLStaged"}; !slices.Equal(entrances, want) {
		t.Errorf("query entrances = %v, want %v", entrances, want)
	}
}
