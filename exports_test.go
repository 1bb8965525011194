package lambada_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist names what TestNoTestOnlyExports may find, each with the
// reason it stays. A key is the package path under internal/, then the
// declaration: "awssim/s3.Service.Buckets".
var exportAllowlist = map[string]string{
	"awssim/lambdasvc.Ctx.Compute":  "ROADMAP direction 4(a) puts a worker's compute on the virtual clock through it",
	"awssim/lambdasvc.Ctx.CPUShare": "ROADMAP direction 4(a): the vCPU share Compute charges against",
	"awssim/s3.Service.Buckets":     "leak-audit observer: the driver's tests list every bucket a query left",
	"netmodel.Constant":             "the latency fixture tests across packages pin every modeled delay with",
	"tpch.Q12Reference":             "reference implementation: the join path's independent oracle for tpch.Q12SQL",
}

// TestNoTestOnlyExports: everything internal/ exports is there for a
// program. A program is cmd/, examples/, the root package and bench/ — the
// benchmark's tests included, since the benchmark is frozen and calls what
// it calls. The guard type-checks every program file and every non-test file
// of internal/, follows references from the programs to a fixpoint, and
// fails on (a) an exported declaration or method of internal/ that no
// program reaches, and (b) an exported field a program reads but never sets:
// a knob only tests turn. exportAllowlist holds the exceptions; an entry
// the guard no longer finds fails too.
func TestNoTestOnlyExports(t *testing.T) {
	files, err := readTree(".")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := exportProblems(files, exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// exportProblems type-checks the tree in files (paths relative to the module
// root; test files count only under bench/) and lists each finding allow
// does not name, and each entry of allow that is no longer a finding: now
// used, or gone.
func exportProblems(files map[string][]byte, allow map[string]string) ([]string, error) {
	r, err := loadTree(files)
	if err != nil {
		return nil, err
	}
	r.run()
	found := r.findings()
	// An allowlisted declaration keeps what it uses: a reference
	// implementation keeps its row type.
	for key := range allow {
		if f, ok := found[key]; ok {
			r.use(f.obj)
		}
	}
	r.run()
	var out []string
	for key, f := range r.findings() {
		if _, ok := allow[key]; !ok {
			out = append(out, key+": "+f.why)
		}
	}
	for key := range allow {
		if _, ok := found[key]; !ok {
			out = append(out, key+": allowlisted, but a program reaches it or it is gone; drop the entry")
		}
	}
	slices.Sort(out)
	return out, nil
}

// readTree reads every Go file under root, keyed by its slash-separated
// path relative to root. Directories named testdata, or starting with "."
// or "_", are skipped, as the go command skips them.
func readTree(root string) (map[string][]byte, error) {
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = src
		return nil
	})
	return files, err
}

const guardModule = "lambada"

// dynamicMethods are the methods the standard library finds by a type
// assertion on an interface{} it was handed (fmt, errors, encoding/json):
// no call names them, so a reachable type keeps them.
var dynamicMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// loadTree parses and type-checks the tree and declares its top-level
// objects, the programs' queued as roots.
func loadTree(files map[string][]byte) (*reach, error) {
	fset := token.NewFileSet()
	byPkg := map[string][]*ast.File{}
	std := map[string]bool{}
	for _, name := range sortedKeys(files) {
		if strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, "bench/") {
			continue
		}
		f, err := parser.ParseFile(fset, name, files[name], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg := guardModule
		if dir := path.Dir(name); dir != "." {
			pkg += "/" + dir
		}
		byPkg[pkg] = append(byPkg[pkg], f)
		for _, imp := range f.Imports {
			std[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	for pkg := range byPkg {
		delete(std, pkg)
	}
	exports, err := stdExportData(sortedKeys(std))
	if err != nil {
		return nil, err
	}
	l := &loader{fset: fset, files: byPkg, checked: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	l.std = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	r := &reach{
		decl: map[types.Object]*declNode{}, seen: map[types.Object]bool{},
		written: map[*types.Var]bool{}, reflected: map[types.Type]bool{},
		ifaces: map[*types.Interface]bool{}, named: map[*types.Named]bool{},
	}
	for _, pkg := range sortedKeys(byPkg) {
		if _, err := l.Import(pkg); err != nil {
			return nil, err
		}
		r.declare(pkg, byPkg[pkg], l.infos[pkg])
	}
	return r, nil
}

// stdExportData maps each standard-library import path to the export data
// the go command built for it: one `go list`, so the guard type-checks
// against the real library without a dependency.
func stdExportData(paths []string) (map[string]string, error) {
	out := map[string]string{}
	if len(paths) == 0 {
		return out, nil
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if p, file, ok := strings.Cut(line, " "); ok {
			out[p] = file
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// loader type-checks the tree's packages on demand, in import order.
type loader struct {
	fset    *token.FileSet
	files   map[string][]*ast.File
	checked map[string]*types.Package
	infos   map[string]*types.Info
	std     types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	if pkg, ok := l.checked[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	l.checked[path] = nil
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.checked[path], l.infos[path] = pkg, info
	return pkg, nil
}

// declNode is one top-level declaration: a function or method, a type, or
// the spec of a var or const.
type declNode struct {
	node    ast.Node
	info    *types.Info
	visited bool
}

// reach follows references from the programs' declarations to a fixpoint.
type reach struct {
	decl      map[types.Object]*declNode
	internal  []types.Object // internal/'s top-level objects, methods included
	work      []*declNode
	seen      map[types.Object]bool // every object a reachable node uses
	written   map[*types.Var]bool   // fields a reachable node sets
	reflected map[types.Type]bool   // types handed to the standard library as an interface value
	ifaces    map[*types.Interface]bool
	named     map[*types.Named]bool // the tree's non-generic named types
}

func isInternal(pkg string) bool {
	return strings.HasPrefix(pkg, guardModule+"/internal/")
}

func (r *reach) declare(pkg string, files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, d := range f.Decls {
			var objs []*ast.Ident
			var specs []ast.Node
			switch d := d.(type) {
			case *ast.FuncDecl:
				n := &declNode{node: d, info: info}
				if !isInternal(pkg) || (d.Recv == nil && d.Name.Name == "init") {
					r.work = append(r.work, n)
				}
				if obj := info.Defs[d.Name]; obj != nil {
					r.decl[obj] = n
					r.internalObj(pkg, obj)
				}
				continue
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						objs = append(objs, s.Name)
						specs = append(specs, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							objs = append(objs, id)
							specs = append(specs, s)
						}
					}
				}
			}
			for i, id := range objs {
				n := &declNode{node: specs[i], info: info}
				if !isInternal(pkg) || id.Name == "_" {
					r.work = append(r.work, n)
				}
				if obj := info.Defs[id]; obj != nil {
					r.decl[obj] = n
					r.internalObj(pkg, obj)
					if tn, ok := obj.(*types.TypeName); ok {
						if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() == 0 {
							r.named[nt] = true
						}
					}
				}
			}
		}
	}
}

func (r *reach) internalObj(pkg string, obj types.Object) {
	if isInternal(pkg) {
		r.internal = append(r.internal, obj)
	}
}

// use marks obj reachable and queues its declaration.
func (r *reach) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if r.seen[obj] {
		return
	}
	r.seen[obj] = true
	if n := r.decl[obj]; n != nil && !n.visited {
		r.work = append(r.work, n)
	}
	if obj.Pkg() == nil || strings.HasPrefix(obj.Pkg().Path(), guardModule) {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				r.iface(recv.Type())
			}
		}
		return
	}
	// A standard-library declaration: whatever interface it takes, it may
	// call every method of.
	switch o := obj.(type) {
	case *types.TypeName:
		r.iface(o.Type())
	case *types.Var:
		r.iface(o.Type())
	case *types.Func:
		params := o.Type().(*types.Signature).Params()
		for i := range params.Len() {
			t := params.At(i).Type()
			if s, ok := t.(*types.Slice); ok && o.Type().(*types.Signature).Variadic() && i == params.Len()-1 {
				t = s.Elem()
			}
			r.iface(t)
		}
	}
}

// iface records t if it is an interface with methods.
func (r *reach) iface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		r.ifaces[it] = true
	}
}

func (r *reach) run() {
	for {
		for len(r.work) > 0 {
			n := r.work[len(r.work)-1]
			r.work = r.work[:len(r.work)-1]
			if !n.visited {
				n.visited = true
				r.visit(n)
			}
		}
		// A reachable type keeps each method an interface it may be
		// converted to calls, and those the library finds by assertion.
		for nt := range r.named {
			if _, isIface := nt.Underlying().(*types.Interface); isIface || !r.seen[nt.Obj()] {
				continue
			}
			ptr := types.NewPointer(nt)
			mset := types.NewMethodSet(ptr)
			for i := range mset.Len() {
				m := mset.At(i).Obj()
				keep := dynamicMethods[m.Name()]
				for it := range r.ifaces {
					if keep {
						break
					}
					if hasMethod(it, m.Name()) && types.Implements(ptr, it) {
						keep = true
					}
				}
				if keep {
					r.use(m)
				}
			}
		}
		if len(r.work) == 0 {
			return
		}
	}
}

func hasMethod(it *types.Interface, name string) bool {
	for i := range it.NumMethods() {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// visit marks everything n refers to, and the fields it sets.
func (r *reach) visit(n *declNode) {
	info := n.info
	ast.Inspect(n.node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				r.use(obj)
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				r.set(info, lhs)
			}
		case *ast.IncDecStmt:
			r.set(info, x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				r.set(info, x.X)
			}
		case *ast.RangeStmt:
			r.set(info, x.Key)
			r.set(info, x.Value)
		case *ast.CompositeLit:
			t := info.Types[x].Type
			if t == nil {
				break
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						r.written[f.Origin()] = true
					}
				} else if i < st.NumFields() {
					r.written[st.Field(i).Origin()] = true
				}
			}
		case *ast.CallExpr:
			r.call(info, x)
		}
		return true
	})
}

// set marks every field on the path of an assigned expression as set:
// x.a.b[i] = v sets b and a.
func (r *reach) set(info *types.Info, e ast.Expr) {
	for e != nil {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if f, ok := info.Uses[x.Sel].(*types.Var); ok && f.IsField() {
				r.written[f.Origin()] = true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}

// call handles what a call may set: a method called on a field (x.f.Add(1)
// may change f), the first argument of a mutating builtin, and every field
// of a value handed to the standard library as an interface (encoding/json
// fills them by reflection).
func (r *reach) call(info *types.Info, c *ast.CallExpr) {
	fun := ast.Unparen(c.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if m, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if recv := m.Type().(*types.Signature).Recv(); recv != nil && isPointer(recv.Type()) {
				r.set(info, sel.X)
			}
		}
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok && len(c.Args) > 0 {
			switch id.Name {
			case "delete", "clear", "copy", "append":
				r.set(info, c.Args[0])
			}
		}
	}
	sig, ok := info.Types[c.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	var callee types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		callee = info.Uses[f]
	case *ast.SelectorExpr:
		callee = info.Uses[f.Sel]
	}
	if callee == nil || callee.Pkg() == nil || strings.HasPrefix(callee.Pkg().Path(), guardModule) {
		return
	}
	for i, arg := range c.Args {
		p := sig.Params().Len() - 1
		if i < p {
			p = i
		}
		if p < 0 {
			break
		}
		pt := sig.Params().At(p).Type()
		if s, ok := pt.(*types.Slice); ok && sig.Variadic() && p == sig.Params().Len()-1 && !c.Ellipsis.IsValid() {
			pt = s.Elem()
		}
		if types.IsInterface(pt) {
			r.reflect(info.Types[arg].Type)
		}
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.(*types.Pointer)
	return ok
}

// reflect marks every exported field reachable from t as set and read.
func (r *reach) reflect(t types.Type) {
	if t == nil || r.reflected[t] {
		return
	}
	r.reflected[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		r.reflect(u.Elem())
	case *types.Slice:
		r.reflect(u.Elem())
	case *types.Array:
		r.reflect(u.Elem())
	case *types.Map:
		r.reflect(u.Key())
		r.reflect(u.Elem())
	case *types.Struct:
		for i := range u.NumFields() {
			f := u.Field(i)
			if f.Exported() {
				r.written[f.Origin()] = true
				r.use(f)
				r.reflect(f.Type())
			}
		}
	}
}

// finding is one declaration the guard reports, and why.
type finding struct {
	obj types.Object
	why string
}

// findings lists internal/'s exported declarations no program reaches (a
// method only if its type is reached), and the exported fields of reached
// types that a program reads and never sets, keyed by package path under
// internal/ and name: "awssim/s3.Service.Buckets".
func (r *reach) findings() map[string]finding {
	out := map[string]finding{}
	for _, obj := range r.internal {
		if !obj.Exported() {
			continue
		}
		key := strings.TrimPrefix(obj.Pkg().Path(), guardModule+"/internal/") + "."
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if nt, ok := t.(*types.Named); ok {
					if !r.seen[nt.Obj()] {
						continue
					}
					key += nt.Obj().Name() + "."
				}
			}
		}
		key += obj.Name()
		if !r.seen[obj] {
			out[key] = finding{obj, "exported, but no program reaches it"}
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := range st.NumFields() {
			f := st.Field(i)
			if f.Exported() && !f.Embedded() && r.seen[f] && !r.written[f] && st.Tag(i) == "" {
				out[key+"."+f.Name()] = finding{f, "a program reads this field, but none sets it: a knob only tests turn"}
			}
		}
	}
	return out
}

// TestNoTestOnlyExportsFinds runs the guard over a small tree: what it must
// report, what it must leave alone, and an allowlist gone stale.
func TestNoTestOnlyExportsFinds(t *testing.T) {
	tree := map[string][]byte{
		"internal/a/a.go": []byte(`package a

import "errors"

type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int      { return s.Side * s.Side }
func (s Square) Perimeter() int { return 4 * s.Side }

func Total(shapes []Shape) (n int) {
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

type Config struct {
	Knob int
	Size int
}

func Run(c Config) int { return c.Knob + c.Size }

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "wrapped" }
func (w *wrapped) Unwrap() error { return w.err }

func Fail() error { return &wrapped{errors.New("cause")} }

func Unused()          {}
func OnlyTested() int  { return 1 }
func BenchOnly()       {}
func BenchTestOnly()   {}
func Used() int        { return 2 }
`),
		"internal/a/a_test.go": []byte(`package a

import "testing"

func TestOnlyTested(t *testing.T) { _ = OnlyTested() + Run(Config{Knob: 1}) }
`),
		"cmd/app/main.go": []byte(`package main

import "lambada/internal/a"

func main() {
	_ = a.Total([]a.Shape{a.Square{Side: 2}}) + a.Run(a.Config{Size: 1}) + a.Used()
	_ = a.Fail()
}
`),
		"bench/main.go": []byte(`package main

import "lambada/internal/a"

func main() { a.BenchOnly() }
`),
		"bench/main_test.go": []byte(`package main

import (
	"testing"

	"lambada/internal/a"
)

func TestBench(t *testing.T) { a.BenchTestOnly() }
`),
	}
	for _, tc := range []struct {
		allow map[string]string
		want  []string
	}{
		{nil, []string{"a.Config.Knob", "a.OnlyTested", "a.Square.Perimeter", "a.Unused"}},
		{
			map[string]string{"a.Unused": "kept", "a.Used": "a program calls it now", "a.Gone": "deleted"},
			[]string{"a.Config.Knob", "a.Gone", "a.OnlyTested", "a.Square.Perimeter", "a.Used"},
		},
	} {
		problems, err := exportProblems(tree, tc.allow)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, p := range problems {
			key, _, _ := strings.Cut(p, ":")
			keys = append(keys, key)
		}
		if !slices.Equal(keys, tc.want) {
			t.Errorf("allowlist %v: problems\n%s\nwant keys %v", tc.allow, strings.Join(problems, "\n"), tc.want)
		}
	}
}
