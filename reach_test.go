package dmesh_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist names every function under internal/ or the root package
// that no main, init or package-level initializer reaches, and what keeps
// it. TestProductCodeIsReached fails on an unreached function missing from
// it and on a line whose function is reached or gone.
var reachAllowlist = map[string]string{
	// References the tests hold product code to.
	"dmesh/internal/dm.Dataset.UniformCut":               "reference cut of TestViewpointIndependentROI",
	"dmesh/internal/pm.Tree.CheckInvariants":             "reference check of TestFromSequenceInvariants",
	"dmesh/internal/pm.Tree.ExpandedPlane":               "in-memory reference of TestStorePlaneMatchesInMemory",
	"dmesh/internal/pm.Tree.ExpandedUniform":             "in-memory reference of TestStoreUniformMatchesInMemory",
	"dmesh/internal/pm.Tree.FrontierPlane":               "in-memory reference of TestStorePlaneMatchesInMemory",
	"dmesh/internal/pm.Tree.FrontierUniform":             "in-memory reference of TestStoreUniformMatchesInMemory",
	"dmesh/internal/pm.Tree.ValidateCut":                 "cut-property reference of TestCutProperty",
	"dmesh/internal/rtree.Tree.CheckInvariants":          "structural reference of TestBulkLoadMatchesBruteForce",
	"dmesh/internal/rtree.Tree.checkInvariants":          "the recursion behind Tree.CheckInvariants",
	"dmesh/internal/simplify.Sequence.AdjacencyAtStep":   "collapse-replay oracle of TestViewpointIndependentExactAgainstReplay",
	"dmesh/internal/simplify.Sequence.StepForLOD":        "collapse-replay oracle of TestViewpointIndependentExactAgainstReplay",
	"dmesh/internal/obs.Trace.Breakdown":                 "per-phase reference of TestTraceInvariantQueries",
	"dmesh/internal/storage/btree.Tree.Range":            "content reference of TestModelEquivalence and allRIDs in dm's cursor tests",
	"dmesh/internal/storage/btree.Tree.Height":           "page-count reference of TestColdGetCostIsHeight",
	"dmesh/internal/storage/btree.nextLeaf":              "the leaf-chain step of Tree.Range",
	"dmesh/internal/storage/heapfile.File.Scan":          "sequential reference of TestScan",
	"dmesh/internal/storage/heapfile.VarFile.Scan":       "sequential reference of TestVarFileScan",
	"dmesh/internal/dm.CoherentSession.FrameUniform":     "viewpoint-independent coherent frames of TestCoherentUniformExact",
	"dmesh/internal/costmodel.EqualStrips":               "ablation: BenchmarkAblationMultiBase",
	"dmesh/internal/hdov.Store.QueryPlaneLODRTree":       "ablation: BenchmarkAblationVisibility",
	"dmesh/internal/costmodel.Model.DataFactor":          "ROADMAP item 8(c)",
	"dmesh/internal/storage/faultfs.Backend.SetLatency":  "ROADMAP item 10's fault drill",
	"dmesh/internal/cluster.Router.Handler":              "ROADMAP item 10: the cluster's HTTP face",
	"dmesh/internal/cluster.Router.Health":               "ROADMAP item 10: the cluster's HTTP face",
	"dmesh/internal/cluster.Router.handleClusterHealth":  "ROADMAP item 10: the cluster's HTTP face",
	"dmesh/internal/cluster.Router.handleClusterMetrics": "ROADMAP item 10: the cluster's HTTP face",
	"dmesh/internal/cluster.Router.handleClusterSlowLog": "ROADMAP item 10: the cluster's HTTP face",
	"dmesh/internal/cluster.clusterError":                "ROADMAP item 10: the cluster's HTTP face",
	"dmesh/internal/obs.ParsePrometheus":                 "ROADMAP item 10: the cluster's HTTP face",
	"dmesh/internal/obs.MergePrometheus":                 "ROADMAP item 10: the cluster's HTTP face",
	"dmesh/internal/obs.Registry.WritePrometheus":        "ROADMAP item 10: the cluster's HTTP face",
	"dmesh/internal/serve.StartTestHarness":              "role: the test server other packages' tests share",
	"dmesh/internal/serve.NewTestServer":                 "role: the test server other packages' tests share",
	"dmesh/internal/serve.Fetch":                         "role: the test server other packages' tests share",
	"dmesh.Terrain.BuildDMStoreAt":                       "role: facade API that bench/README.md names",
}

// optionAllowlist names every option field (an exported field of an
// exported struct named …Config, …Options or …Pools, under internal/ or
// the root package) that no reached code outside its own package writes,
// and what keeps it. TestEveryOptionIsSet fails on an unwritten field
// missing from it and on a line whose field is written or gone.
var optionAllowlist = map[string]string{
	"dmesh.Config.VerticalDistanceError": "the metric ablation ROADMAP item 7(c) asks for; TestVerticalDistanceConfig",
	"dmesh/internal/hdov.Options.Levels": "the hdov tests build 4-level hierarchies on 8²–9² terrains",
}

// TestProductCodeIsReached type-checks every non-test package of the
// module and walks the call graph from each main, init and package-level
// variable initializer (bench/, cmd/ and examples/ count as callers). A
// function is reached when a reached body names it; a method is also
// reached when its type satisfies an interface that has it. Product code
// only tests reach either goes or earns an allowlist line.
func TestProductCodeIsReached(t *testing.T) {
	sc := scanModule(t)
	got := make(map[string]bool, len(sc.unreached))
	for _, fn := range sc.unreached {
		got[fn] = true
		judged := strings.HasPrefix(fn, "dmesh.") || strings.HasPrefix(fn, "dmesh/internal/")
		if _, ok := reachAllowlist[fn]; judged && !ok {
			t.Errorf("%s: no main, init or initializer reaches it; delete it or add an allowlist line naming what keeps it", fn)
		}
	}
	for fn := range reachAllowlist {
		if !got[fn] {
			t.Errorf("allowlist line %s: the function is reached or gone; delete the line", fn)
		}
	}
}

// TestEveryOptionIsSet fails on a setting no program sets: an option
// field that reached code outside the field's own package never writes,
// by a composite-literal key or an assignment. Such a field and the path
// only it selects go, or the field earns an allowlist line.
func TestEveryOptionIsSet(t *testing.T) {
	sc := scanModule(t)
	got := make(map[string]bool, len(sc.unset))
	for _, f := range sc.unset {
		got[f] = true
		if _, ok := optionAllowlist[f]; !ok {
			t.Errorf("%s: no reached code outside its package sets it; delete it or add an allowlist line naming what keeps it", f)
		}
	}
	for f := range optionAllowlist {
		if !got[f] {
			t.Errorf("allowlist line %s: the field is set or gone; delete the line", f)
		}
	}
}

// moduleScan is the one type-check and reachability walk both tests read.
type moduleScan struct {
	// unreached lists the functions no main, init or initializer
	// reaches, as "importpath.Name" or "importpath.Recv.Name".
	unreached []string
	// unset lists the option fields no reached code outside their package
	// writes, as "importpath.Type.Field".
	unset []string
	err   error
}

var (
	scanOnce sync.Once
	scanned  moduleScan
)

// scanModule runs the scan once per test binary (≈ 3.5 s: it type-checks
// the standard library from source) and returns its sorted results.
func scanModule(t *testing.T) *moduleScan {
	t.Helper()
	scanOnce.Do(func() { scanned = scanSource() })
	if scanned.err != nil {
		t.Fatal(scanned.err)
	}
	return &scanned
}

func scanSource() moduleScan {
	fset := token.NewFileSet()
	m := &moduleChecker{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*checkedPkg{},
		dirOf: map[string]string{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			m.dirOf[path.Join("dmesh", filepath.ToSlash(p))] = p
		}
		return nil
	})
	if err != nil {
		return moduleScan{err: err}
	}
	var paths []string
	for ip := range m.dirOf {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := m.check(ip); err != nil {
			return moduleScan{err: fmt.Errorf("type-check %s: %w", ip, err)}
		}
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	owner := map[*types.Func]*checkedPkg{}
	var roots []ast.Node
	var rootPkgs []*checkedPkg
	var named []*types.Named
	ifaces := map[*types.Interface]bool{}
	options := map[*types.Var]string{} // option field -> "importpath.Type.Field"
	addIfaces := func(scope *types.Scope) {
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces[it] = true
				}
			}
		}
	}
	addIfaces(types.Universe)
	for _, ip := range paths {
		cp := m.pkgs[ip]
		for _, imp := range cp.pkg.Imports() {
			addIfaces(imp.Scope())
		}
		for _, tv := range cp.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
		scope := cp.pkg.Scope()
		judged := ip == "dmesh" || strings.HasPrefix(ip, "dmesh/internal/")
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if nt, ok := tn.Type().(*types.Named); ok && !types.IsInterface(nt) {
					named = append(named, nt)
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				isOption := strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Pools")
				if ok && judged && isOption && tn.Exported() && !tn.IsAlias() {
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); f.Exported() {
							options[f] = ip + "." + n + "." + f.Name()
						}
					}
				}
			}
		}
		for _, f := range cp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := cp.info.Defs[d.Name].(*types.Func)
					decls[fn] = d
					owner[fn] = cp
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && cp.pkg.Name() == "main") {
						roots = append(roots, d)
						rootPkgs = append(rootPkgs, cp)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, d)
						rootPkgs = append(rootPkgs, cp)
					}
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	var queue []*types.Func
	mark := func(fn *types.Func) {
		fn = fn.Origin()
		if _, ours := decls[fn]; ours && !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	// A method that satisfies an interface may be called through it from
	// code the scan does not walk (the standard library included).
	for _, nt := range named {
		for _, typ := range []types.Type{nt, types.NewPointer(nt)} {
			for it := range ifaces {
				if !types.Implements(typ, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if obj, _, _ := types.LookupFieldOrMethod(typ, true, nt.Obj().Pkg(), it.Method(i).Name()); obj != nil {
						if fn, ok := obj.(*types.Func); ok {
							mark(fn)
						}
					}
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	write := func(v types.Object, from *checkedPkg) {
		if f, ok := v.(*types.Var); ok && f.IsField() && f.Origin().Pkg() != from.pkg {
			set[f.Origin()] = true
		}
	}
	walk := func(n ast.Node, cp *checkedPkg) {
		info := cp.info
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok {
					mark(fn)
				}
			case *ast.CompositeLit:
				typ := info.Types[n].Type
				if p, ok := typ.Underlying().(*types.Pointer); ok { // an elided &T
					typ = p.Elem()
				}
				st, isStruct := typ.Underlying().(*types.Struct)
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							write(info.Uses[id], cp)
						}
					} else if isStruct {
						write(st.Field(i), cp)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						write(info.Uses[sel.Sel], cp)
					}
				}
			}
			return true
		})
	}
	for i, r := range roots {
		walk(r, rootPkgs[i])
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if body := decls[fn].Body; body != nil {
			walk(body, owner[fn])
		}
	}

	var out []string
	for fn, d := range decls {
		if reached[fn] || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
			continue
		}
		name := fn.Pkg().Path() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			name = fn.Pkg().Path() + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		out = append(out, name)
	}
	sort.Strings(out)
	var unset []string
	for f, name := range options {
		if !set[f] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	return moduleScan{unreached: out, unset: unset}
}

type checkedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// moduleChecker type-checks the module's packages from source, non-test
// files only, and hands every other import to the standard library's
// source importer.
type moduleChecker struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*checkedPkg
	dirOf map[string]string
}

func (m *moduleChecker) Import(ip string) (*types.Package, error) {
	if _, ours := m.dirOf[ip]; !ours {
		return m.std.Import(ip)
	}
	cp, err := m.check(ip)
	if err != nil {
		return nil, err
	}
	return cp.pkg, nil
}

func (m *moduleChecker) check(ip string) (*checkedPkg, error) {
	if cp := m.pkgs[ip]; cp != nil {
		return cp, nil
	}
	dir := m.dirOf[ip]
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	cp := &checkedPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		cp.files = append(cp.files, f)
	}
	conf := types.Config{Importer: m}
	if cp.pkg, err = conf.Check(ip, m.fset, cp.files, cp.info); err != nil {
		return nil, err
	}
	m.pkgs[ip] = cp
	return cp, nil
}
