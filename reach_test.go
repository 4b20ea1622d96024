package dmesh_test

import (
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

// TestProductCodeIsReached type-checks every non-test package of the
// module and walks the call graph from each main, init and package-level
// variable initializer (bench/, cmd/ and examples/ count as callers). A
// function is reached when a reached body names it; a method is also
// reached when its type satisfies an interface that has it. Product code
// only tests reach either goes or earns an allowlist line.
func TestProductCodeIsReached(t *testing.T) {
	unreached := scanUnreached(t)
	got := make(map[string]bool, len(unreached))
	for _, fn := range unreached {
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

// scanUnreached returns the module's unreached functions as
// "importpath.Name" or "importpath.Recv.Name", sorted.
func scanUnreached(t *testing.T) []string {
	t.Helper()
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
		t.Fatal(err)
	}
	var paths []string
	for ip := range m.dirOf {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := m.check(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	owner := map[*types.Func]*checkedPkg{}
	var roots []ast.Node
	var rootPkgs []*checkedPkg
	var named []*types.Named
	ifaces := map[*types.Interface]bool{}
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
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if nt, ok := tn.Type().(*types.Named); ok && !types.IsInterface(nt) {
					named = append(named, nt)
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
	walk := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					mark(fn)
				}
			}
			return true
		})
	}
	for i, r := range roots {
		walk(r, rootPkgs[i].info)
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if body := decls[fn].Body; body != nil {
			walk(body, owner[fn].info)
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
	return out
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
