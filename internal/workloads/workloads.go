// Package workloads defines the eight array-intensive benchmarks of the
// paper's Table 2 as loop-nest kernels in the compiler IR. The original
// SPEC92/SPEC95/Perfect-Club Fortran codes are not redistributable (and no
// MIPS toolchain exists for this ISA), so each kernel is re-expressed with
// the dynamic loop-structure properties the paper reports and relies on:
//
//   - aps, tsf, wss: small tight innermost loops, capturable even by a
//     32-entry issue queue; tsf and wss have short trip counts, so larger
//     queues over-unroll them and delay gating (Figure 5's
//     non-monotonicity).
//   - adi, btrix, eflux, tomcat, vpenta: large innermost loop bodies that
//     only fit large queues; btrix's dominant loop is ~90 instructions
//     (paper §3), under-utilizing 128/256-entry queues in Code Reuse state
//     (Figure 8's outlier).
//   - eflux contains a small procedure call inside its main loop,
//     exercising the call-depth handling of §2.2.2.
//   - The large bodies are built from independent statement groups, so the
//     loop-distribution pass of Section 4 legally splits them into small
//     bufferable loops (Figure 9).
//
// All outer loops are non-bufferable (they contain inner loops) and exercise
// the NBLT.
package workloads

import "reuseiq/internal/compiler"

// Kernel is one benchmark.
type Kernel struct {
	Name   string
	Source string // provenance per the paper's Table 2
	Prog   *compiler.Program
}

// kernels lists the eight kernels in the paper's Table 2 order with their
// IR constructors, so a kernel's IR is built only when it is asked for.
var kernels = [...]struct {
	name, source string
	build        func() *compiler.Program
}{
	{"adi", "Livermore", ADI},
	{"aps", "Perfect Club", APS},
	{"btrix", "Spec92/NASA", BTRIX},
	{"eflux", "Perfect Club", EFLUX},
	{"tomcat", "Spec95", TOMCAT},
	{"tsf", "Perfect Club", TSF},
	{"vpenta", "Spec92/NASA", VPENTA},
	{"wss", "Perfect Club", WSS},
}

// All returns the eight kernels in the paper's Table 2 order.
func All() []Kernel {
	ks := make([]Kernel, len(kernels))
	for i, k := range kernels {
		ks[i] = Kernel{k.name, k.source, k.build()}
	}
	return ks
}

// Names returns the kernel names in Table 2 order without building any IR.
func Names() []string {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	return names
}

// Source returns the named kernel's provenance per Table 2 without building
// its IR, or "" when no kernel has that name.
func Source(name string) string {
	for _, k := range kernels {
		if k.name == name {
			return k.source
		}
	}
	return ""
}

// ByName builds the named kernel.
func ByName(name string) (Kernel, bool) {
	for _, k := range kernels {
		if k.name == name {
			return Kernel{k.name, k.source, k.build()}, true
		}
	}
	return Kernel{}, false
}

// Shorthand IR constructors.
type e = compiler.Expr

func c(v float64) compiler.Expr    { return compiler.Const(v) }
func v(name string) compiler.Expr  { return compiler.ScalarRef(name) }
func iv(name string) compiler.Expr { return compiler.IVar(name) }
func add(l, r e) compiler.Expr     { return compiler.Bin{Op: compiler.Add, L: l, R: r} }
func sub(l, r e) compiler.Expr     { return compiler.Bin{Op: compiler.Sub, L: l, R: r} }
func mul(l, r e) compiler.Expr     { return compiler.Bin{Op: compiler.Mul, L: l, R: r} }
func div(l, r e) compiler.Expr     { return compiler.Bin{Op: compiler.Div, L: l, R: r} }

func at(arr, ix string) compiler.Ref { return compiler.Ref{Array: arr, Index: compiler.IdxVar(ix)} }
func atOff(arr, ix string, off int) compiler.Ref {
	return compiler.Ref{Array: arr, Index: compiler.Idx(off, ix, 1)}
}
func set(dst compiler.Ref, ex e) compiler.Stmt { return compiler.Assign{Dest: &dst, E: ex} }
func sset(name string, ex e) compiler.Stmt     { return compiler.Assign{Scalar: name, E: ex} }
func loop(varName string, lo, hi int, body ...compiler.Stmt) compiler.Stmt {
	return compiler.Loop{Var: varName, Lo: lo, Hi: hi, Body: body}
}

// initRamp fills arr[i] = i*scale + bias over [0,n).
func initRamp(arr string, n int, scale, bias float64) compiler.Stmt {
	return loop("ii_"+arr, 0, n,
		set(at(arr, "ii_"+arr), add(mul(iv("ii_"+arr), c(scale)), c(bias))))
}

// APS — mesoscale hydrodynamics flux update: one small tight loop swept many
// times (~12 dynamic instructions per iteration).
func APS() *compiler.Program {
	const n, sweeps = 400, 40
	return &compiler.Program{
		Name: "aps",
		Arrays: []compiler.ArrayDecl{
			{Name: "u", Len: n}, {Name: "w", Len: n}, {Name: "flx", Len: n},
		},
		Body: []compiler.Stmt{
			initRamp("u", n, 0.01, 1),
			initRamp("w", n, -0.005, 2),
			loop("t", 0, sweeps,
				loop("i", 1, n,
					// First-order recurrence: the flux is smoothed along
					// the sweep direction, which bounds ILP the way the
					// original code's dependences do.
					set(at("flx", "i"), add(mul(at("u", "i"), c(0.3)), mul(atOff("flx", "i", -1), c(0.7)))),
					set(at("u", "i"), mul(at("flx", "i"), c(0.995))),
				),
			),
		},
	}
}

// TSF — turbulence statistics: a short-trip dot-product reduction re-entered
// many times (~8 dynamic instructions per iteration, trip count 45).
func TSF() *compiler.Program {
	const n, entries = 45, 300
	return &compiler.Program{
		Name:    "tsf",
		Scalars: []string{"s"},
		Arrays: []compiler.ArrayDecl{
			{Name: "x", Len: n}, {Name: "y", Len: n}, {Name: "out", Len: entries},
		},
		Body: []compiler.Stmt{
			initRamp("x", n, 0.1, 0.5),
			initRamp("y", n, 0.02, 1),
			loop("t", 0, entries,
				sset("s", c(0)),
				loop("i", 0, n,
					sset("s", add(v("s"), mul(at("x", "i"), at("y", "i")))),
				),
				set(at("out", "t"), v("s")),
			),
		},
	}
}

// WSS — shallow-water statistics: small loop, short trip count (60).
func WSS() *compiler.Program {
	const n, entries = 60, 250
	return &compiler.Program{
		Name: "wss",
		Arrays: []compiler.ArrayDecl{
			{Name: "w", Len: n}, {Name: "z", Len: n},
		},
		Body: []compiler.Stmt{
			initRamp("w", n, 0.03, 1),
			initRamp("z", n, 0.07, 0.25),
			loop("t", 0, entries,
				loop("i", 1, n,
					// Carried recurrence along the water column.
					set(at("w", "i"), add(mul(atOff("w", "i", -1), c(0.5)), at("z", "i"))),
					set(at("z", "i"), mul(at("z", "i"), c(0.999))),
				),
			),
		},
	}
}

// ADI — alternating direction implicit integration: forward and backward
// sweeps whose bodies hold three independent recurrence groups (~65 dynamic
// instructions per iteration; distribution splits them).
func ADI() *compiler.Program {
	const n, sweeps = 300, 12
	groups := func() []compiler.Stmt {
		var body []compiler.Stmt
		for _, g := range []string{"x", "y", "z"} {
			// Three chained statements per direction (recurrences on
			// one array family keep each group together).
			body = append(body,
				set(at(g+"1", "i"), sub(at(g+"1", "i"), mul(atOff(g+"1", "i", -1), c(0.25)))),
				set(at(g+"2", "i"), add(mul(at(g+"2", "i"), c(0.75)), at(g+"1", "i"))),
				set(at(g+"3", "i"), add(at(g+"3", "i"), mul(at(g+"2", "i"), c(0.125)))),
			)
		}
		return body
	}
	p := &compiler.Program{Name: "adi"}
	for _, g := range []string{"x", "y", "z"} {
		for _, s := range []string{"1", "2", "3"} {
			p.Arrays = append(p.Arrays, compiler.ArrayDecl{Name: g + s, Len: n})
		}
	}
	for _, a := range p.Arrays {
		p.Body = append(p.Body, initRamp(a.Name, n, 0.002, 1))
	}
	p.Body = append(p.Body,
		loop("t", 0, sweeps, compiler.Loop{Var: "i", Lo: 1, Hi: n, Body: groups()}))
	return p
}

// BTRIX — block tridiagonal solver, streaming update phase: a dominant
// ~90-instruction loop made of four independent 3-4 statement blocks over
// arrays whose working set (~130KB) overflows the 32KB L1 data cache but
// sits in the 256KB L2. The blocks carry no cross-iteration recurrence, so
// performance is limited by how many L1 misses the instruction window can
// overlap — exactly the under-utilization the paper reports for btrix when
// a ~90-instruction loop occupies a 128/256-entry queue in Code Reuse state
// (Figure 8).
func BTRIX() *compiler.Program {
	const n, outer = 1400, 6
	p := &compiler.Program{Name: "btrix"}
	blocks := []struct {
		a, b, cc string
	}{
		{"ba", "bb", "bc"}, {"bd", "be", "bf"}, {"bg", "bh", "bi"}, {"bj", "bk", "bl"},
	}
	for _, bl := range blocks {
		p.Arrays = append(p.Arrays,
			compiler.ArrayDecl{Name: bl.a, Len: n},
			compiler.ArrayDecl{Name: bl.b, Len: n},
			compiler.ArrayDecl{Name: bl.cc, Len: n})
	}
	for _, a := range p.Arrays {
		p.Body = append(p.Body, initRamp(a.Name, n, 0.0004, 1))
	}
	var body []compiler.Stmt
	for bi, bl := range blocks {
		k := 0.1 * float64(bi+1)
		body = append(body,
			set(at(bl.cc, "i"), add(mul(at(bl.a, "i"), c(k)), at(bl.b, "i"))),
			set(at(bl.a, "i"), add(mul(at(bl.a, "i"), c(1-k)), mul(at(bl.cc, "i"), c(k)))),
			set(at(bl.b, "i"), sub(at(bl.b, "i"), mul(at(bl.cc, "i"), c(k/2)))),
		)
	}
	// One extra statement on the first block makes 13 assignments total.
	body = append(body,
		set(at("ba", "i"), mul(at("ba", "i"), c(0.9999))))
	p.Body = append(p.Body,
		loop("t", 0, outer, compiler.Loop{Var: "i", Lo: 1, Hi: n, Body: body}))
	return p
}

// EFLUX — Euler flux computation: a medium loop (~50 instructions) with a
// small procedure call in the loop body (paper §2.2.2).
func EFLUX() *compiler.Program {
	const n, outer = 80, 40
	return &compiler.Program{
		Name:    "eflux",
		Scalars: []string{"gamma"},
		Arrays: []compiler.ArrayDecl{
			{Name: "p", Len: n + 1}, {Name: "q", Len: n + 1},
			{Name: "r", Len: n + 1}, {Name: "fl", Len: n + 1},
		},
		Procs: []compiler.Proc{{
			Name: "gam",
			Body: []compiler.Stmt{
				sset("gamma", add(mul(v("gamma"), c(0.5)), c(0.7))),
			},
		}},
		Body: []compiler.Stmt{
			initRamp("p", n+1, 0.05, 1),
			initRamp("q", n+1, 0.03, 2),
			initRamp("r", n+1, 0.01, 0.5),
			sset("gamma", c(1.4)),
			loop("t", 0, outer,
				loop("i", 1, n,
					// The pressure term divides by the upstream flux, a
					// carried chain through the unpipelined FP divider.
					set(at("fl", "i"), div(add(mul(at("p", "i"), at("q", "i")), mul(at("r", "i"), v("gamma"))),
						add(atOff("fl", "i", -1), c(2.5)))),
					set(at("p", "i"), add(mul(at("p", "i"), c(0.98)), mul(at("fl", "i"), c(0.02)))),
					set(at("q", "i"), sub(at("q", "i"), mul(atOff("q", "i", 1), c(0.01)))),
					set(at("r", "i"), add(at("r", "i"), mul(at("fl", "i"), c(0.005)))),
					compiler.Call{Proc: "gam"},
				),
			),
		},
	}
}

// TOMCAT — mesh generation: the largest body (~120 instructions), five
// independent coordinate-relaxation groups.
func TOMCAT() *compiler.Program {
	const n, outer = 100, 25
	p := &compiler.Program{Name: "tomcat"}
	groups := []string{"ma", "mb", "mc", "md", "me"}
	for _, g := range groups {
		p.Arrays = append(p.Arrays,
			compiler.ArrayDecl{Name: g + "x", Len: n + 2},
			compiler.ArrayDecl{Name: g + "y", Len: n + 2})
	}
	for _, a := range p.Arrays {
		p.Body = append(p.Body, initRamp(a.Name, n+2, 0.006, 1))
	}
	var body []compiler.Stmt
	for gi, g := range groups {
		k := 0.05 * float64(gi+1)
		body = append(body,
			set(at(g+"x", "i"),
				add(mul(add(atOff(g+"x", "i", -1), atOff(g+"x", "i", 1)), c(0.5)), c(k))),
			set(at(g+"y", "i"),
				add(mul(add(atOff(g+"y", "i", -1), atOff(g+"y", "i", 1)), c(0.5)), mul(at(g+"x", "i"), c(k)))),
			set(at(g+"x", "i"), mul(at(g+"x", "i"), c(1-k/10))),
		)
	}
	p.Body = append(p.Body,
		loop("t", 0, outer, compiler.Loop{Var: "i", Lo: 1, Hi: n + 1, Body: body}))
	return p
}

// VPENTA — pentadiagonal inversion: ~100-instruction body, four independent
// elimination groups with wider stencils.
func VPENTA() *compiler.Program {
	const n, outer = 90, 25
	p := &compiler.Program{Name: "vpenta"}
	groups := []string{"va", "vb", "vc", "vd"}
	for _, g := range groups {
		p.Arrays = append(p.Arrays,
			compiler.ArrayDecl{Name: g + "1", Len: n + 4},
			compiler.ArrayDecl{Name: g + "2", Len: n + 4})
	}
	for _, a := range p.Arrays {
		p.Body = append(p.Body, initRamp(a.Name, n+4, 0.008, 1))
	}
	var body []compiler.Stmt
	for gi, g := range groups {
		k := 0.04 * float64(gi+1)
		body = append(body,
			set(at(g+"1", "i"),
				sub(at(g+"1", "i"), add(mul(atOff(g+"1", "i", -1), c(k)), mul(atOff(g+"1", "i", -2), c(k/2))))),
			set(at(g+"2", "i"),
				add(mul(at(g+"2", "i"), c(1-k)), mul(at(g+"1", "i"), c(k)))),
			set(at(g+"2", "i"),
				add(at(g+"2", "i"), mul(atOff(g+"2", "i", 2), c(0.001)))),
		)
	}
	// Two extra statements on the first group: 14 assignments total.
	body = append(body,
		set(at("va1", "i"), mul(at("va1", "i"), c(0.9995))),
		set(at("va2", "i"), add(at("va2", "i"), c(0.0001))),
	)
	p.Body = append(p.Body,
		loop("t", 0, outer, compiler.Loop{Var: "i", Lo: 2, Hi: n + 2, Body: body}))
	return p
}
