// Package determinism proves, statically, that the module's fingerprints
// are stable: in any function reachable from a "//reuse:deterministic"
// root — the snapshot fingerprints, the wire codec, the regression
// sentinel's canonical capture — nothing may depend on map iteration order,
// wall-clock or process identity, or bit-lossy float comparison. These are exactly the three accidents that
// make a byte-identical artifact quietly non-reproducible: the bytes differ
// between two runs of the same build, and every downstream comparison
// (golden files, the cross-run sentinel, checkpoint byte-identity) reports
// drift that no code change caused.
//
// Markers and waivers:
//
//   - "//reuse:deterministic" in a function's doc comment roots the taint:
//     the function and everything it transitively calls must be
//     deterministic. The marker in a package comment roots every function
//     in the package.
//   - "//reuse:allow-nondet <why>" on the offending line waives one
//     finding (provenance stamps that deliberately record the wall clock,
//     an entropy draw feeding a diagnostic, a float equality that is
//     genuinely wanted). A waiver with no justification is itself a
//     finding.
//
// The three checks, inside the tainted closure:
//
//  1. Ranging over a map. Allowed only as the collect-then-sort idiom —
//     the range body does nothing but append to (or assign into) local
//     collections, possibly under simple ifs, and every collection is
//     later passed to a sort call in the same function — or as a
//     commutative integer reduction (+=, |=, counters), whose result is
//     order-independent. Anything else is a finding: emitting to output
//     inside the range observes iteration order.
//
//  2. Calling a wall-clock, PRNG or process-identity source: time.Now and
//     friends, anything in math/rand (including methods on rand.Rand),
//     os.Getpid/Hostname/Environ/Getenv. In whole-module mode the closure
//     itself reaches through module-internal helpers; under the vettool
//     protocol, per-package facts list exported functions that transitively
//     reach such a source, so the taint crosses package boundaries in
//     dependency order.
//
//  3. Comparing floats with == or != . Fingerprints must compare the bit
//     pattern (math.Float64bits) — raw comparison conflates 0.0 with -0.0
//     and is false for NaN against itself, so two states that serialize
//     differently can compare "equal" and vice versa.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"reuseiq/internal/analysis"
	"reuseiq/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "functions reachable from a //reuse:deterministic root must not " +
		"range over maps un-sorted, read wall clocks, PRNGs or process " +
		"identity, or compare floats with == (waiver //reuse:allow-nondet <why>)",
	Run:         run,
	ExportFacts: exportFacts,
}

const waiverName = "allow-nondet"

// Fact is determinism's cross-package fact: the exported functions and
// methods of a package that transitively reach a forbidden source. Methods
// are listed as "Recv.Name". Dependent packages treat a call to a listed
// function like a direct forbidden call.
type Fact struct {
	NondetSources []string
}

// forbiddenCall reports whether fn is a wall-clock, PRNG or
// process-identity source, with a short description for the finding.
func forbiddenCall(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name(), true
		}
	case "os":
		switch fn.Name() {
		case "Getpid", "Hostname", "Environ", "Getenv", "LookupEnv":
			return "os." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		return pkg.Path() + "." + fn.Name(), true
	}
	return "", false
}

// factName renders a function the way Fact lists it.
func factName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

type checker struct {
	pass    *analysis.Pass
	graph   *callgraph.Graph
	waivers *analysis.Waivers
	// tainted maps each function in the deterministic closure to the root
	// it was reached from (for the finding message).
	tainted map[types.Object]string
	// depSources caches, per imported package, the set of fact-listed
	// nondet sources.
	depSources map[*types.Package]map[string]bool
}

func run(pass *analysis.Pass) (any, error) {
	files := pass.ModuleFiles()
	c := &checker{
		pass:       pass,
		graph:      callgraph.Build(pass.TypesInfo, files),
		waivers:    analysis.NewWaivers(pass.Fset, files, waiverName),
		depSources: make(map[*types.Package]map[string]bool),
	}

	roots := deterministicRoots(pass, c.graph, files)
	c.tainted = c.graph.Closure(roots, nil)

	// Check each tainted function that the pass owns (module mode walks the
	// whole closure from each package's pass; the driver dedups identical
	// findings, and anchoring to the defining package keeps vettool passes
	// from reporting into files they did not load).
	var fns []types.Object
	for obj := range c.tainted {
		if obj.Pkg() == pass.Pkg || pass.Module != nil {
			fns = append(fns, obj)
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, obj := range fns {
		if fd := c.graph.Decls[obj]; fd != nil && fd.Body != nil {
			c.checkFunc(obj, fd)
		}
	}
	return nil, nil
}

// deterministicRoots collects the marked functions, in declaration order.
// A package-comment marker roots every function declared in that package.
func deterministicRoots(pass *analysis.Pass, g *callgraph.Graph, files []*ast.File) []callgraph.Root {
	taintedPkgs := make(map[string]bool)
	for _, f := range files {
		if _, ok := analysis.Marker(f.Doc, "deterministic"); ok {
			taintedPkgs[f.Name.Name] = true
		}
	}
	var roots []callgraph.Root
	for obj, fd := range g.Decls {
		_, marked := analysis.Marker(fd.Doc, "deterministic")
		if !marked && obj.Pkg() != nil {
			marked = taintedPkgs[obj.Pkg().Name()]
		}
		if marked {
			roots = append(roots, callgraph.Root{Obj: obj, Label: obj.Name()})
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Obj.Pos() < roots[j].Obj.Pos() })
	return roots
}

// nondetSource reports whether a call to fn (which has no body in view)
// reaches a forbidden source according to its package's exported fact.
func (c *checker) nondetSource(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || pkg == c.pass.Pkg {
		return false
	}
	set, ok := c.depSources[pkg]
	if !ok {
		set = make(map[string]bool)
		var fact Fact
		if c.pass.DepFact(pkg.Path(), &fact) {
			for _, name := range fact.NondetSources {
				set[name] = true
			}
		}
		c.depSources[pkg] = set
	}
	return set[factName(fn)]
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if why, waived := c.waivers.At(pos); waived {
		if why == "" {
			c.pass.Reportf(pos, "//reuse:%s waiver has no justification", waiverName)
		}
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) checkFunc(obj types.Object, fd *ast.FuncDecl) {
	root := c.tainted[obj]
	info := c.pass.TypesInfo

	// Map ranges not absorbed by the collect-then-sort idiom or a
	// commutative reduction.
	sorted := sortedExprs(info, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); !isMap {
				return true
			}
			if ok, culprit := mapRangeAbsorbed(info, n, sorted); !ok {
				c.report(n.Pos(), "map range in %s (deterministic via %s) %s; "+
					"collect and sort, or waive with //reuse:%s <why>",
					obj.Name(), root, culprit, waiverName)
			}
		case *ast.CallExpr:
			fn, _ := callgraph.CalleeObject(info, n).(*types.Func)
			if fn == nil {
				return true
			}
			if desc, bad := forbiddenCall(fn); bad {
				c.report(n.Pos(), "%s calls %s but must be deterministic (via %s); "+
					"thread the value in, or waive with //reuse:%s <why>",
					obj.Name(), desc, root, waiverName)
			} else if c.nondetSource(fn) {
				c.report(n.Pos(), "%s calls %s.%s, which transitively reaches a wall-clock or PRNG "+
					"source, but must be deterministic (via %s); waive with //reuse:%s <why> if intended",
					obj.Name(), fn.Pkg().Name(), fn.Name(), root, waiverName)
			}
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			if isFloat(info.TypeOf(n.X)) || isFloat(info.TypeOf(n.Y)) {
				c.report(n.Pos(), "raw float comparison in %s (deterministic via %s) conflates 0.0 "+
					"with -0.0 and breaks on NaN; compare math.Float64bits, or waive with //reuse:%s <why>",
					obj.Name(), root, waiverName)
			}
		}
		return true
	})
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sortedExprs collects the objects passed to sort/slices calls anywhere in
// the function body: sort.Slice(x, ...), sort.Ints(x), slices.Sort(x), a
// sort.Sort(byX(x)) conversion, and method forms.
func sortedExprs(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, _ := callgraph.CalleeObject(info, call).(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			markSortTarget(info, arg, out)
		}
		return true
	})
	return out
}

// markSortTarget resolves a sort-call argument to the collected object it
// orders, reaching through conversions like sort.Sort(byAddr(pages)).
func markSortTarget(info *types.Info, arg ast.Expr, out map[types.Object]bool) {
	arg = ast.Unparen(arg)
	if call, ok := arg.(*ast.CallExpr); ok && len(call.Args) == 1 {
		// A conversion to a sortable named type counts as sorting its operand.
		if _, isConv := info.Types[call.Fun].Type.(*types.Signature); !isConv {
			markSortTarget(info, call.Args[0], out)
			return
		}
	}
	if obj := exprObject(info, arg); obj != nil {
		out[obj] = true
	}
}

// exprObject resolves x, x.f, x[i] to the outermost stable object.
func exprObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			return info.Uses[x.Sel]
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mapRangeAbsorbed decides whether a map range is order-safe: either the
// collect-then-sort idiom (every statement appends to or assigns into a
// collection that is sorted later in the function, possibly under ifs) or a
// commutative integer reduction. Returns a description of the offending
// construct otherwise.
func mapRangeAbsorbed(info *types.Info, rng *ast.RangeStmt, sorted map[types.Object]bool) (bool, string) {
	ok := true
	culprit := ""
	var visit func(stmts []ast.Stmt)
	visit = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			if !ok {
				return
			}
			switch s := s.(type) {
			case *ast.AssignStmt:
				if !assignAbsorbed(info, s, sorted) {
					ok, culprit = false, "escapes the body without a later sort"
				}
			case *ast.IncDecStmt:
				// Counters are commutative.
			case *ast.IfStmt:
				visit(s.Body.List)
				if s.Else != nil {
					switch e := s.Else.(type) {
					case *ast.BlockStmt:
						visit(e.List)
					case *ast.IfStmt:
						visit([]ast.Stmt{e})
					}
				}
			case *ast.BranchStmt:
				// continue/break don't observe order.
			case *ast.DeclStmt:
				// Local declarations feed the assignments already checked.
			default:
				ok, culprit = false, "does more than collect (statements other than append/assign/if)"
			}
		}
	}
	visit(rng.Body.List)
	return ok, culprit
}

// assignAbsorbed accepts, inside a map range:
//   - x = append(x, ...) and x[k] = v where x is later sorted (collect);
//   - integer-typed x += e, x |= e, &=, ^=, and x++ via IncDecStmt
//     (commutative reduction);
//   - := defining locals from the range variables (feeding a collect).
func assignAbsorbed(info *types.Info, as *ast.AssignStmt, sorted map[types.Object]bool) bool {
	switch as.Tok {
	case token.DEFINE:
		return true
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		for _, lhs := range as.Lhs {
			t := info.TypeOf(lhs)
			if t == nil {
				return false
			}
			if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
				return false
			}
		}
		return true
	case token.ASSIGN:
		for i, lhs := range as.Lhs {
			obj := exprObject(info, lhs)
			if obj == nil || !sorted[obj] {
				return false
			}
			// x = append(x, ...) keeps the collect shape; x[k] = v into a
			// sorted-later collection is also a collect (map inversion).
			if i < len(as.Rhs) {
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
						continue
					}
				}
			}
			if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); !isIndex {
				return false
			}
		}
		return true
	}
	return false
}

// exportFacts publishes the exported functions of the package that
// transitively reach a forbidden source, so dependent packages' vettool
// passes can carry the taint across the package boundary.
func exportFacts(pass *analysis.Pass) any {
	info := pass.TypesInfo
	g := callgraph.Build(info, pass.Files)

	// Seed: functions whose own body makes a forbidden call or calls a
	// dependency's listed source.
	c := &checker{pass: pass, depSources: make(map[*types.Package]map[string]bool)}
	direct := make(map[types.Object]bool)
	for obj, fd := range g.Decls {
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, _ := callgraph.CalleeObject(info, call).(*types.Func); fn != nil {
				if _, bad := forbiddenCall(fn); bad || c.nondetSource(fn) {
					direct[obj] = true
				}
			}
			return true
		})
	}
	// Propagate backwards: a caller of a nondet function is nondet. The
	// callgraph stores forward edges, so invert once.
	callers := make(map[types.Object][]types.Object)
	for from, tos := range g.Callees {
		for _, to := range tos {
			callers[to] = append(callers[to], from)
		}
	}
	work := make([]types.Object, 0, len(direct))
	for obj := range direct {
		work = append(work, obj)
	}
	nondet := make(map[types.Object]bool)
	for _, obj := range work {
		nondet[obj] = true
	}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[cur] {
			if !nondet[caller] {
				nondet[caller] = true
				work = append(work, caller)
			}
		}
	}
	var names []string
	for obj := range nondet {
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() {
			continue
		}
		name := factName(fn)
		// Methods on unexported types are unreachable from outside.
		if r, _, found := strings.Cut(name, "."); found && !token.IsExported(r) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return Fact{NondetSources: names}
}
