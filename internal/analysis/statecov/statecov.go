// Package statecov proves, statically, that the machine-state snapshot
// surface is complete: every field a running component carries is either
// round-tripped through its state image or explicitly waived as transient,
// and every field of the image structs is written and read by the snapshot
// wire codec. The invariant this enforces is the one checkpoints rest on:
// adding a struct field to a snapshot participant without extending
// ExportState/ImportState and the codec must fail `make lint`, not silently
// drift checkpoints, flight-recorder seeks and the regression sentinel.
//
// Anchors and markers:
//
//   - A type participates when it has an ExportState/ImportState method
//     pair, or methods marked "//reuse:export" / "//reuse:import" (the
//     pipeline's Snapshot/load, prog's ExportPages/ImportPages).
//   - "//reuse:transient <why>" on a runtime field's declaration waives the
//     round-trip requirement (scratch buffers, pools, re-attached hooks,
//     config the snapshot layer fingerprints separately).
//   - "//reuse:codec encode" / "//reuse:codec decode" mark the wire codec's
//     entry points; cross-package named structs in their signatures root the
//     codec coverage unit.
//   - "//reuse:nowire <why>" on an image field's declaration waives the
//     codec requirement (a field the wire format deliberately reconstructs).
//
// Coverage is reference-based: a field counts as covered by a method when
// the field object is referenced anywhere in the method's static call
// closure (selector reads, assignment targets, keyed composite-literal
// keys). That is necessary, not sufficient — a read does not prove the value
// lands on the wire — but it is exactly the property whose absence is the
// drift accident: a freshly added field is referenced nowhere. See DESIGN.md
// §5k for the soundness sketch. Waivers with no justification, and stale
// waivers on fields that are in fact fully covered, are themselves findings.
//
// Field reachability follows slices, arrays, maps, pointers and embedded
// structs into same-module struct types. Recursion stops at types that own
// their own export pair (their coverage is checked at their own anchor) and
// at types that appear inside the image itself (those are carried wholesale
// by the image struct and their wire coverage is owned by the codec check).
package statecov

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"reuseiq/internal/analysis"
	"reuseiq/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "statecov",
	Doc: "every snapshot participant's fields must round-trip through its " +
		"ExportState/ImportState pair (waiver //reuse:transient <why>), every " +
		"image field must be wired through the //reuse:codec entry points " +
		"(waiver //reuse:nowire <why>)",
	Run:         run,
	ExportFacts: exportFacts,
}

// Fact is statecov's cross-package fact: the names of types in a package
// that carry an export/import pair, including marker-designated pairs whose
// method names a dependent package cannot recognize without source. Used in
// vettool (single-package) mode to stop field recursion at component
// boundaries exactly where the whole-module view would.
type Fact struct {
	Pairs []string
}

// pair is one snapshot participant: the component type and its two methods.
type pair struct {
	recv     *types.Named
	exp, imp *types.Func
	expDecl  *ast.FuncDecl
	impDecl  *ast.FuncDecl
}

// typeWaiver is a //reuse:transient marker in a type's doc comment: the
// whole type is opaque to the runtime coverage walk (configuration structs
// the snapshot layer fingerprints wholesale instead of round-tripping).
type typeWaiver struct {
	why string
	pos token.Pos
}

// index is everything run needs that is derived from the visible syntax.
type index struct {
	pass      *analysis.Pass
	graph     *callgraph.Graph
	pairs     map[*types.Named]*pair // fully paired participants
	half      map[*types.Named]*pair // one side only (a finding)
	transient *analysis.Waivers
	opaque    map[*types.Named]typeWaiver // type-level transient markers

	encodeDecls []*ast.FuncDecl // //reuse:codec encode in this package
	decodeDecls []*ast.FuncDecl // //reuse:codec decode in this package
}

func run(pass *analysis.Pass) (any, error) {
	idx := buildIndex(pass)

	// Unpaired participants: an export with no import (or vice versa) can
	// never round-trip. Reported at the type's anchor in this package only.
	var halves []*pair
	for _, p := range idx.half {
		halves = append(halves, p)
	}
	sort.Slice(halves, func(i, j int) bool { return halves[i].recv.Obj().Pos() < halves[j].recv.Obj().Pos() })
	for _, p := range halves {
		if p.recv.Obj().Pkg() != pass.Pkg {
			continue
		}
		switch {
		case p.exp != nil:
			pass.Reportf(p.exp.Pos(), "%s has export method %s but no matching import method (ImportState or //reuse:import)",
				p.recv.Obj().Name(), p.exp.Name())
		case p.imp != nil:
			pass.Reportf(p.imp.Pos(), "%s has import method %s but no matching export method (ExportState or //reuse:export)",
				p.recv.Obj().Name(), p.imp.Name())
		}
	}

	// Round-trip coverage for every participant anchored in this package.
	var local []*pair
	for _, p := range idx.pairs {
		if p.recv.Obj().Pkg() == pass.Pkg {
			local = append(local, p)
		}
	}
	sort.Slice(local, func(i, j int) bool { return local[i].recv.Obj().Pos() < local[j].recv.Obj().Pos() })
	for _, p := range local {
		idx.checkPair(p)
	}

	// Unjustified type-level waivers, anchored at the type declaration.
	var opaques []*types.Named
	for named := range idx.opaque {
		if named.Obj().Pkg() == pass.Pkg && idx.opaque[named].why == "" {
			opaques = append(opaques, named)
		}
	}
	sort.Slice(opaques, func(i, j int) bool { return opaques[i].Obj().Pos() < opaques[j].Obj().Pos() })
	for _, named := range opaques {
		pass.Reportf(idx.opaque[named].pos, "//reuse:transient waiver on type %s has no justification", named.Obj().Name())
	}

	// Codec cross-check, anchored at the marked functions.
	idx.checkCodec()
	return nil, nil
}

func buildIndex(pass *analysis.Pass) *index {
	files := pass.ModuleFiles()
	idx := &index{
		pass:      pass,
		graph:     callgraph.Build(pass.TypesInfo, files),
		pairs:     make(map[*types.Named]*pair),
		half:      make(map[*types.Named]*pair),
		transient: analysis.NewWaivers(pass.Fset, files, "transient"),
		opaque:    make(map[*types.Named]typeWaiver),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				why, ok := analysis.Marker(doc, "transient")
				if !ok {
					continue
				}
				if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					if named, ok := tn.Type().(*types.Named); ok {
						idx.opaque[named] = typeWaiver{why: why, pos: ts.Pos()}
					}
				}
			}
		}
	}
	byRecv := make(map[*types.Named]*pair)
	for obj, fd := range idx.graph.Decls {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if fd.Recv == nil {
			if side, isCodec := analysis.Marker(fd.Doc, "codec"); isCodec && inPassFiles(pass, fd) {
				switch side {
				case "encode":
					idx.encodeDecls = append(idx.encodeDecls, fd)
				case "decode":
					idx.decodeDecls = append(idx.decodeDecls, fd)
				default:
					pass.Reportf(fd.Pos(), "//reuse:codec marker must say encode or decode, got %q", side)
				}
			}
			continue
		}
		recv := recvNamed(fn)
		if recv == nil {
			continue
		}
		_, expMark := analysis.Marker(fd.Doc, "export")
		_, impMark := analysis.Marker(fd.Doc, "import")
		isExp := fn.Name() == "ExportState" || expMark
		isImp := fn.Name() == "ImportState" || impMark
		if !isExp && !isImp {
			continue
		}
		p := byRecv[recv]
		if p == nil {
			p = &pair{recv: recv}
			byRecv[recv] = p
		}
		if isExp {
			p.exp, p.expDecl = fn, fd
		}
		if isImp {
			p.imp, p.impDecl = fn, fd
		}
	}
	sortDecls(idx.encodeDecls)
	sortDecls(idx.decodeDecls)
	for recv, p := range byRecv {
		if p.exp != nil && p.imp != nil {
			idx.pairs[recv] = p
		} else {
			idx.half[recv] = p
		}
	}
	return idx
}

func sortDecls(ds []*ast.FuncDecl) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].Pos() < ds[j].Pos() })
}

// inPassFiles reports whether the declaration belongs to the pass's own
// package (ModuleFiles spans the whole module; marked functions anchor
// checks only in their defining package's pass).
func inPassFiles(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	obj := pass.TypesInfo.Defs[fd.Name]
	return obj != nil && obj.Pkg() == pass.Pkg
}

// recvNamed resolves a method's receiver to its named type.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// hasPair reports whether named carries an export/import pair: seen in the
// visible syntax, detectable by method name on the type itself (works on
// export-data imports), or declared by a dependency's statecov fact.
func (idx *index) hasPair(named *types.Named) bool {
	if _, ok := idx.pairs[named]; ok {
		return true
	}
	var exp, imp bool
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "ExportState":
			exp = true
		case "ImportState":
			imp = true
		}
	}
	if exp && imp {
		return true
	}
	if pkg := named.Obj().Pkg(); pkg != nil && pkg != idx.pass.Pkg {
		var fact Fact
		if idx.pass.DepFact(pkg.Path(), &fact) {
			for _, name := range fact.Pairs {
				if name == named.Obj().Name() {
					return true
				}
			}
		}
	}
	return false
}

// sourceStruct resolves t (through pointers, slices, arrays and map
// elements) to a named struct whose fields the pass can inspect with waiver
// comments attached: any module package in whole-module mode, the pass's own
// package otherwise. Returns nil for everything else (stdlib types,
// interfaces, scalars, export-data-only packages).
func (idx *index) sourceStruct(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok {
				return nil
			}
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
				return nil
			}
			pkg := named.Obj().Pkg()
			if pkg == nil {
				return nil
			}
			if pkg == idx.pass.Pkg {
				return named
			}
			if idx.pass.Module != nil && idx.pass.Module.Lookup(pkg.Path()) != nil {
				return named
			}
			return nil
		}
	}
}

// fieldRefs collects every struct field object referenced anywhere in the
// bodies of the given closure's functions: selector reads and writes, and
// keyed composite-literal keys (go/types resolves both through Uses).
func (idx *index) fieldRefs(closure map[types.Object]bool) map[*types.Var]bool {
	refs := make(map[*types.Var]bool)
	for obj := range closure {
		fd := idx.graph.Decls[obj]
		if fd == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := idx.pass.TypesInfo.Uses[id].(*types.Var); ok && v.IsField() {
				refs[v] = true
			}
			return true
		})
	}
	return refs
}

// imageStructs collects the named structs reachable from the export method's
// result types: the state image. Structs in this set are carried wholesale
// by the image, so the runtime check does not recurse into them — their wire
// coverage belongs to the codec check.
func (idx *index) imageStructs(exp *types.Func) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	sig := exp.Type().(*types.Signature)
	var work []*types.Named
	push := func(t types.Type) {
		if named := idx.sourceStruct(t); named != nil && !out[named] {
			out[named] = true
			work = append(work, named)
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		push(sig.Results().At(i).Type())
	}
	// Marker-based imports take the image as a parameter (load(st
	// *MachineState)); include those roots too so export-via-pointer
	// conventions image the same set.
	for i := 0; i < sig.Params().Len(); i++ {
		push(sig.Params().At(i).Type())
	}
	for len(work) > 0 {
		named := work[len(work)-1]
		work = work[:len(work)-1]
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			push(st.Field(i).Type())
		}
	}
	return out
}

// checkPair enforces the round-trip invariant for one participant.
func (idx *index) checkPair(p *pair) {
	expRefs := idx.fieldRefs(idx.graph.ReachableFrom(p.exp))
	impRefs := idx.fieldRefs(idx.graph.ReachableFrom(p.imp))
	image := idx.imageStructs(p.exp)

	seen := map[*types.Named]bool{p.recv: true}
	work := []*types.Named{p.recv}
	for len(work) > 0 {
		named := work[0]
		work = work[1:]
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if why, waived := idx.transient.At(f.Pos()); waived {
				switch {
				case why == "":
					idx.pass.Reportf(f.Pos(), "//reuse:transient waiver on %s.%s has no justification",
						named.Obj().Name(), f.Name())
				case expRefs[f] && impRefs[f]:
					idx.pass.Reportf(f.Pos(), "stale //reuse:transient waiver: %s.%s is referenced by both %s and %s",
						named.Obj().Name(), f.Name(), p.exp.Name(), p.imp.Name())
				}
				continue
			}
			inner := idx.sourceStruct(f.Type())
			if inner != nil {
				if _, isOpaque := idx.opaque[inner]; isOpaque {
					inner = nil // type-level transient: don't decompose
				}
			}
			recurse := inner != nil && !idx.hasPair(inner) && !image[inner] && !seen[inner]
			if !f.Embedded() || inner == nil {
				if miss := missing(expRefs[f], impRefs[f], p.exp.Name(), p.imp.Name()); miss != "" {
					idx.pass.Reportf(f.Pos(),
						"%s.%s is not %s: the snapshot would silently drop it; cover it or waive with //reuse:transient <why>",
						named.Obj().Name(), f.Name(), miss)
					continue // don't cascade into an uncovered subtree
				}
			}
			if recurse {
				seen[inner] = true
				work = append(work, inner)
			}
		}
	}
}

// missing renders which sides of the round trip do not reference a field.
func missing(exp, imp bool, expName, impName string) string {
	switch {
	case !exp && !imp:
		return fmt.Sprintf("covered by %s or %s", expName, impName)
	case !exp:
		return fmt.Sprintf("written by %s", expName)
	case !imp:
		return fmt.Sprintf("read by %s", impName)
	}
	return ""
}

// signatureRoots collects the named module structs in a function's
// parameters and results, excluding the function's own package (the codec's
// writer/reader/dims scaffolding is not state).
func (idx *index) signatureRoots(fd *ast.FuncDecl) []*types.Named {
	fn := idx.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	sig := fn.Type().(*types.Signature)
	var out []*types.Named
	add := func(t types.Type) {
		named := idx.sourceStruct(t)
		if named == nil {
			return
		}
		if named.Obj().Pkg() == fn.Pkg() {
			return
		}
		out = append(out, named)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		add(sig.Params().At(i).Type())
	}
	for i := 0; i < sig.Results().Len(); i++ {
		add(sig.Results().At(i).Type())
	}
	return out
}

// checkCoverageUnit walks the image unit rooted at roots, requiring every
// field not waived //reuse:nowire (a field the wire format deliberately
// reconstructs) to be referenced per side. sides maps a side label (for the
// message) to that side's referenced-field set; a field must appear in
// every side.
func (idx *index) checkCoverageUnit(roots []*types.Named, sides []refSide) {
	waivers := analysis.NewWaivers(idx.pass.Fset, idx.pass.ModuleFiles(), "nowire")
	seen := make(map[*types.Named]bool)
	var work []*types.Named
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		named := work[0]
		work = work[1:]
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if why, waived := waivers.At(f.Pos()); waived {
				switch {
				case why == "":
					idx.pass.Reportf(f.Pos(), "//reuse:nowire waiver on %s.%s has no justification",
						named.Obj().Name(), f.Name())
				case coveredByAll(sides, f):
					idx.pass.Reportf(f.Pos(), "stale //reuse:nowire waiver: %s.%s is covered by %s",
						named.Obj().Name(), f.Name(), sideNames(sides))
				}
				continue
			}
			covered := true
			for _, s := range sides {
				if !s.refs[f] {
					covered = false
					idx.pass.Reportf(f.Pos(), "%s.%s is not referenced by %s: "+
						"the wire image would not round-trip it; encode and decode it or waive with //reuse:nowire <why>",
						named.Obj().Name(), f.Name(), s.name)
				}
			}
			if covered {
				if inner := idx.sourceStruct(f.Type()); inner != nil && !seen[inner] {
					seen[inner] = true
					work = append(work, inner)
				}
			}
		}
	}
}

type refSide struct {
	name string
	refs map[*types.Var]bool
}

func coveredByAll(sides []refSide, f *types.Var) bool {
	for _, s := range sides {
		if !s.refs[f] {
			return false
		}
	}
	return true
}

func sideNames(sides []refSide) string {
	out := ""
	for i, s := range sides {
		if i > 0 {
			out += " and "
		}
		out += s.name
	}
	return out
}

// checkCodec enforces that every image field is wired through both codec
// sides. The two sides share one coverage unit: the union of their
// signature roots.
func (idx *index) checkCodec() {
	if len(idx.encodeDecls) == 0 && len(idx.decodeDecls) == 0 {
		return
	}
	if len(idx.encodeDecls) == 0 || len(idx.decodeDecls) == 0 {
		var fd *ast.FuncDecl
		side, missing := "encode", "decode"
		if len(idx.encodeDecls) == 0 {
			fd, side, missing = idx.decodeDecls[0], "decode", "encode"
		} else {
			fd = idx.encodeDecls[0]
		}
		idx.pass.Reportf(fd.Pos(), "//reuse:codec %s has no matching //reuse:codec %s function in this package", side, missing)
		return
	}
	refsFor := func(decls []*ast.FuncDecl) map[*types.Var]bool {
		closure := make(map[types.Object]bool)
		for _, fd := range decls {
			for obj := range idx.graph.ReachableFrom(idx.pass.TypesInfo.Defs[fd.Name]) {
				closure[obj] = true
			}
		}
		return idx.fieldRefs(closure)
	}
	var roots []*types.Named
	rootSeen := make(map[*types.Named]bool)
	for _, fd := range append(append([]*ast.FuncDecl{}, idx.encodeDecls...), idx.decodeDecls...) {
		for _, r := range idx.signatureRoots(fd) {
			if !rootSeen[r] {
				rootSeen[r] = true
				roots = append(roots, r)
			}
		}
	}
	if len(roots) == 0 {
		// Under the vettool protocol the image structs usually live in a
		// dependency and resolve from export data, not source; package-local
		// type checking can't see them, so the unit belongs to standalone mode.
		if idx.pass.Module != nil {
			idx.pass.Reportf(idx.encodeDecls[0].Pos(), "//reuse:codec functions name no cross-package struct to root the coverage unit")
		}
		return
	}
	idx.checkCoverageUnit(roots, []refSide{
		{name: "the wire encoder (//reuse:codec encode)", refs: refsFor(idx.encodeDecls)},
		{name: "the wire decoder (//reuse:codec decode)", refs: refsFor(idx.decodeDecls)},
	})
}

// exportFacts publishes this package's participant types for dependent
// packages' vettool passes.
func exportFacts(pass *analysis.Pass) any {
	idx := buildIndex(pass)
	var names []string
	for recv := range idx.pairs {
		if recv.Obj().Pkg() == pass.Pkg {
			names = append(names, recv.Obj().Name())
		}
	}
	sort.Strings(names)
	return Fact{Pairs: names}
}
