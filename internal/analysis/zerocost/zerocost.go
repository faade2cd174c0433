// Package zerocost enforces the "zero cost when disabled" contract of the
// simulator's observability hooks: every call through a struct field marked
// "//reuse:nilguard" (hook funcs like Machine.OnCommit, tap pointers like
// Machine.Tel) must be dominated by a nil check of that same field, so a
// run with no taps attached never pays for one — and never panics.
//
// Dominance is syntactic, the shapes that actually occur in the tree:
//
//	if m.OnCommit != nil { m.OnCommit(c) }            // guard in the condition
//	if m.Tel == nil { return }; m.Tel.GatedCycle()    // early-exit guard
//	if m.Tel == nil { ... } else { m.Tel.Emit() }
//
// Compound conditions split on && (then-branch) and || (after a terminating
// early exit). Reassigning the field or its receiver drops the fact. A call
// site can opt out with "//reuse:allow-unguarded <why>" on its line or the
// line above; a waiver with no justification is itself a finding.
package zerocost

import (
	"go/ast"
	"go/types"
	"strings"

	"reuseiq/internal/analysis"
)

const waiverName = "allow-unguarded"

var Analyzer = &analysis.Analyzer{
	Name: "zerocost",
	Doc: "calls through //reuse:nilguard struct fields must be dominated by " +
		"a nil check of the same field; waive with //reuse:allow-unguarded <why>",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:    pass,
		guarded: guardedFields(pass),
		waivers: analysis.NewWaivers(pass.Fset, pass.Files, waiverName),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				c.walkStmts(fd.Body.List, nil)
			}
		}
	}
	return nil, nil
}

// guardedFields indexes every struct field whose declaration carries
// //reuse:nilguard, module-wide when module context is available.
func guardedFields(pass *analysis.Pass) map[types.Object]bool {
	guarded := make(map[types.Object]bool)
	for _, f := range pass.ModuleFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				_, found := analysis.Marker(field.Doc, "nilguard")
				if !found {
					_, found = analysis.Marker(field.Comment, "nilguard")
				}
				if !found {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guarded[obj] = true
					}
				}
			}
			return true
		})
	}
	return guarded
}

// chain is a resolved ident.sel.sel path, outermost object first.
type chain []types.Object

type checker struct {
	pass    *analysis.Pass
	guarded map[types.Object]bool
	waivers *analysis.Waivers
}

// walkStmts flows facts (chains known non-nil) through a statement list.
// facts is treated as immutable: branches extend it by appending to a copy.
func (c *checker) walkStmts(stmts []ast.Stmt, facts []chain) {
	for _, stmt := range stmts {
		facts = c.walkStmt(stmt, facts)
	}
}

// walkStmt checks one statement and returns the facts that hold after it.
func (c *checker) walkStmt(stmt ast.Stmt, facts []chain) []chain {
	switch s := stmt.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			facts = c.walkStmt(s.Init, facts)
		}
		c.walkExpr(s.Cond, facts)
		thenFacts := append(copyFacts(facts), c.positiveConjuncts(s.Cond)...)
		c.walkStmts(s.Body.List, thenFacts)
		elseFacts := append(copyFacts(facts), c.negatedDisjuncts(s.Cond)...)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			c.walkStmts(e.List, elseFacts)
		case *ast.IfStmt:
			c.walkStmt(e, elseFacts)
		}
		// An early exit ("if x == nil { return }") establishes x != nil for
		// everything after the if.
		if terminates(s.Body) {
			facts = append(copyFacts(facts), c.negatedDisjuncts(s.Cond)...)
		}
		return facts
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			c.walkExpr(rhs, facts)
		}
		for _, lhs := range s.Lhs {
			if ch, ok := analysis.ChainOf(c.pass.TypesInfo, lhs); ok {
				facts = dropPrefixed(facts, ch)
			} else {
				c.walkExpr(lhs, facts)
			}
		}
		return facts
	case *ast.BlockStmt:
		c.walkStmts(s.List, facts)
	case *ast.ExprStmt:
		c.walkExpr(s.X, facts)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.walkExpr(r, facts)
		}
	case *ast.DeferStmt:
		c.walkExpr(s.Call, facts)
	case *ast.GoStmt:
		c.walkExpr(s.Call, facts)
	case *ast.ForStmt:
		if s.Init != nil {
			facts = c.walkStmt(s.Init, facts)
		}
		if s.Cond != nil {
			c.walkExpr(s.Cond, facts)
		}
		bodyFacts := append(copyFacts(facts), c.positiveConjuncts(s.Cond)...)
		c.walkStmts(s.Body.List, bodyFacts)
		if s.Post != nil {
			c.walkStmt(s.Post, bodyFacts)
		}
	case *ast.RangeStmt:
		c.walkExpr(s.X, facts)
		c.walkStmts(s.Body.List, facts)
	case *ast.SwitchStmt:
		if s.Init != nil {
			facts = c.walkStmt(s.Init, facts)
		}
		if s.Tag != nil {
			c.walkExpr(s.Tag, facts)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					c.walkExpr(e, facts)
				}
				c.walkStmts(cc.Body, facts)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			facts = c.walkStmt(s.Init, facts)
		}
		c.walkStmt(s.Assign, facts)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, facts)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				if cc.Comm != nil {
					c.walkStmt(cc.Comm, facts)
				}
				c.walkStmts(cc.Body, facts)
			}
		}
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, facts)
	case *ast.SendStmt:
		c.walkExpr(s.Chan, facts)
		c.walkExpr(s.Value, facts)
	case *ast.IncDecStmt:
		c.walkExpr(s.X, facts)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.walkExpr(v, facts)
					}
				}
			}
		}
	}
	return facts
}

// walkExpr checks every call inside e against the facts in scope. Function
// literal bodies inherit the enclosing facts: the literals in this codebase
// are invoked where they are built (hook registration sites construct them
// under the same guard they will run under).
func (c *checker) walkExpr(e ast.Expr, facts []chain) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.checkCall(call, facts)
		return true
	})
}

// checkCall reports a call whose selector path crosses a guarded field
// without a dominating nil check of that field.
func (c *checker) checkCall(call *ast.CallExpr, facts []chain) {
	ch, ok := analysis.ChainOf(c.pass.TypesInfo, call.Fun)
	if !ok {
		return
	}
	for i, obj := range ch {
		if !c.guarded[obj] {
			continue
		}
		need := ch[:i+1]
		if hasFact(facts, need) {
			continue
		}
		if why, waived := c.waivers.At(call.Pos()); waived {
			if why == "" {
				c.pass.Reportf(call.Pos(), "//reuse:%s waiver has no justification", waiverName)
			}
			continue
		}
		c.pass.Reportf(call.Pos(),
			"call through nil-able %s is not dominated by a nil check (guard with `if %s != nil`, or //reuse:%s <why>)",
			chainString(need), chainString(need), waiverName)
	}
}

// positiveConjuncts extracts chains proven non-nil when cond is true:
// "x != nil" leaves of an && tree.
func (c *checker) positiveConjuncts(cond ast.Expr) []chain {
	var out []chain
	for _, leaf := range splitBinary(cond, "&&") {
		if ch, ok := c.nilCompare(leaf, "!="); ok {
			out = append(out, ch)
		}
	}
	return out
}

// negatedDisjuncts extracts chains proven non-nil when cond is false:
// "x == nil" leaves of an || tree (¬(a==nil || b==nil) ⇒ a≠nil ∧ b≠nil).
func (c *checker) negatedDisjuncts(cond ast.Expr) []chain {
	var out []chain
	for _, leaf := range splitBinary(cond, "||") {
		if ch, ok := c.nilCompare(leaf, "=="); ok {
			out = append(out, ch)
		}
	}
	return out
}

// nilCompare matches "expr <op> nil" or "nil <op> expr" and resolves expr.
func (c *checker) nilCompare(e ast.Expr, op string) (chain, bool) {
	e = unparen(e)
	b, ok := e.(*ast.BinaryExpr)
	if !ok || b.Op.String() != op {
		return nil, false
	}
	var target ast.Expr
	switch {
	case isNil(c.pass.TypesInfo, b.Y):
		target = b.X
	case isNil(c.pass.TypesInfo, b.X):
		target = b.Y
	default:
		return nil, false
	}
	ch, ok := analysis.ChainOf(c.pass.TypesInfo, target)
	return ch, ok
}

func splitBinary(e ast.Expr, op string) []ast.Expr {
	e = unparen(e)
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op.String() == op {
		return append(splitBinary(b.X, op), splitBinary(b.Y, op)...)
	}
	if e == nil {
		return nil
	}
	return []ast.Expr{e}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.Uses[id].(*types.Nil)
	return isNilObj
}

// terminates reports whether the block always transfers control away:
// its last statement is a return, branch, or panic call.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func copyFacts(facts []chain) []chain {
	return append([]chain(nil), facts...)
}

func hasFact(facts []chain, need chain) bool {
	for _, f := range facts {
		if analysis.ChainEqual(f, need) {
			return true
		}
	}
	return false
}

// dropPrefixed removes facts invalidated by an assignment to lhs: any fact
// whose chain starts with the assigned path.
func dropPrefixed(facts []chain, lhs chain) []chain {
	var out []chain
	for _, f := range facts {
		if len(f) >= len(lhs) && analysis.ChainEqual(f[:len(lhs)], lhs) {
			continue
		}
		out = append(out, f)
	}
	return out
}

func chainString(ch chain) string {
	parts := make([]string, len(ch))
	for i, obj := range ch {
		parts[i] = obj.Name()
	}
	return strings.Join(parts, ".")
}
