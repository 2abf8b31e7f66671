package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// diagnostic is one finding: position, which check fired, and the
// message. Output format matches go vet ("file:line:col: message").
type diagnostic struct {
	pos   token.Position
	check string
	msg   string
}

// enumTypes are the named types whose switches must be exhaustive,
// keyed by "<pkg-path>.<type-name>". The values of each enum are every
// package-level constant of that exact type declared in the defining
// package.
var enumTypes = map[string]bool{
	"repro/internal/core.AbortReason":       true,
	"repro/internal/trace.MonitorEventKind": true,
	"repro/internal/machine.SBKind":         true,
	"repro/internal/shadow.SampleClass":     true,
}

func checkPackage(fset *token.FileSet, p *pkg) []diagnostic {
	var diags []diagnostic
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv != nil && fd.Body != nil {
				diags = append(diags, checkNilReceiver(fset, p, fd)...)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				diags = append(diags, checkExhaustive(fset, p, n)...)
			case *ast.RangeStmt:
				diags = append(diags, checkMapRangeFloat(fset, p, n)...)
			}
			return true
		})
	}
	return diags
}

// --- check 1: nil-receiver safety of *Metrics methods -------------------

// metricsReceiver reports whether fd is a pointer-receiver method on a
// named type whose name ends in "Metrics", and returns the receiver's
// identifier (nil for a blank/anonymous receiver, which is trivially
// safe).
func metricsReceiver(p *pkg, fd *ast.FuncDecl) *ast.Ident {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	field := fd.Recv.List[0]
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return nil
	}
	base, ok := star.X.(*ast.Ident)
	if !ok || !strings.HasSuffix(base.Name, "Metrics") {
		return nil
	}
	if len(field.Names) != 1 || field.Names[0].Name == "_" {
		return nil
	}
	return field.Names[0]
}

// checkNilReceiver verifies the method body cannot dereference a nil
// receiver before guarding. The analysis is a linear scan of the
// top-level statements: a statement that dereferences the receiver
// outside an `if recv != nil` block before an `if recv == nil { return }`
// guard is a diagnostic. This is deliberately syntactic — the repo's
// accessors all follow one of the two guard shapes — and errs toward
// reporting, since a false positive here means the guard style drifted.
func checkNilReceiver(fset *token.FileSet, p *pkg, fd *ast.FuncDecl) []diagnostic {
	recv := metricsReceiver(p, fd)
	if recv == nil {
		return nil
	}
	obj := p.info.Defs[recv]
	if obj == nil {
		return nil
	}
	for _, stmt := range fd.Body.List {
		if isNilGuard(stmt, p, obj) {
			return nil // everything below runs with recv != nil
		}
		if pos, deref := firstUnguardedDeref(stmt, p, obj); deref {
			return []diagnostic{{
				pos:   fset.Position(pos),
				check: "nilreceiver",
				msg: fmt.Sprintf("method (*%s).%s dereferences receiver %q before a nil guard; *Metrics methods must be nil-receiver-safe",
					receiverTypeName(fd), fd.Name.Name, obj.Name()),
			}}
		}
	}
	return nil
}

func receiverTypeName(fd *ast.FuncDecl) string {
	if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return "?"
}

// isNilGuard recognizes `if recv == nil { ... }` whose body terminates
// (return or panic), including as the leftmost operand of an ||-chain:
// `if recv == nil || other { return }` guards too.
func isNilGuard(stmt ast.Stmt, p *pkg, obj types.Object) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	cond := ifs.Cond
	for {
		bin, ok := cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		if bin.Op == token.LOR {
			cond = bin.X
			continue
		}
		if bin.Op != token.EQL {
			return false
		}
		if !(isRecv(bin.X, p, obj) && isNil(bin.Y, p) || isRecv(bin.Y, p, obj) && isNil(bin.X, p)) {
			return false
		}
		break
	}
	return bodyTerminates(ifs.Body)
}

func bodyTerminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func isRecv(e ast.Expr, p *pkg, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && p.info.Uses[id] == obj
}

func isNil(e ast.Expr, p *pkg) bool {
	tv, ok := p.info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

// firstUnguardedDeref finds a receiver dereference in stmt that is not
// inside an `if recv != nil` block. Reading the receiver's value (e.g.
// `return m != nil` or passing it along) is fine; selecting a field,
// indexing, or explicit * is not.
func firstUnguardedDeref(stmt ast.Stmt, p *pkg, obj types.Object) (token.Pos, bool) {
	var pos token.Pos
	var found bool
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.IfStmt:
			if isNotNilGuard(x.Cond, p, obj) {
				// The guarded body may deref freely; init/else may not.
				if x.Init != nil {
					ast.Inspect(x.Init, visit)
				}
				if x.Else != nil {
					ast.Inspect(x.Else, visit)
				}
				return false
			}
		case *ast.SelectorExpr:
			if isRecv(x.X, p, obj) && derefSelector(x, p) {
				pos, found = x.Pos(), true
				return false
			}
		case *ast.StarExpr:
			if isRecv(x.X, p, obj) {
				pos, found = x.Pos(), true
				return false
			}
		case *ast.IndexExpr:
			if isRecv(x.X, p, obj) {
				pos, found = x.Pos(), true
				return false
			}
		}
		return true
	}
	ast.Inspect(stmt, visit)
	return pos, found
}

// isNotNilGuard recognizes `recv != nil` possibly as the leftmost
// operand of an &&-chain.
func isNotNilGuard(cond ast.Expr, p *pkg, obj types.Object) bool {
	for {
		bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		if bin.Op == token.LAND {
			cond = bin.X
			continue
		}
		if bin.Op != token.NEQ {
			return false
		}
		return isRecv(bin.X, p, obj) && isNil(bin.Y, p) ||
			isRecv(bin.Y, p, obj) && isNil(bin.X, p)
	}
}

// derefSelector reports whether sel actually loads through the pointer:
// method values on pointer receivers don't (calling them re-enters a
// nil-safe method), field selections do.
func derefSelector(sel *ast.SelectorExpr, p *pkg) bool {
	obj := p.info.Uses[sel.Sel]
	if obj == nil {
		return true // be conservative
	}
	_, isField := obj.(*types.Var)
	return isField
}

// --- check 2: exhaustive switches over monitored enums ------------------

// checkExhaustive fires when a switch's tag is one of the monitored
// enum types, it has no default clause, and some constant of the type
// is not covered by any case expression.
func checkExhaustive(fset *token.FileSet, p *pkg, sw *ast.SwitchStmt) []diagnostic {
	if sw.Tag == nil {
		return nil
	}
	tv, ok := p.info.Types[sw.Tag]
	if !ok {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return nil
	}
	key := tn.Pkg().Path() + "." + tn.Name()
	if !enumTypes[key] {
		return nil
	}

	want := enumValues(tn)
	covered := map[string]bool{}
	for _, clause := range sw.Body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			return nil // default clause: anything uncovered is handled
		}
		for _, e := range cc.List {
			etv, ok := p.info.Types[e]
			if !ok || etv.Value == nil {
				continue
			}
			covered[etv.Value.ExactString()] = true
		}
	}

	var missing []string
	for val, name := range want {
		if !covered[val] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	return []diagnostic{{
		pos:   fset.Position(sw.Pos()),
		check: "exhaustive",
		msg: fmt.Sprintf("switch over %s is missing cases %s (add them or a default clause)",
			key, strings.Join(missing, ", ")),
	}}
}

// enumValues collects every package-level constant of exactly the named
// type from its defining package, keyed by exact constant value so
// aliases (two names, one value) count once.
func enumValues(tn *types.TypeName) map[string]string {
	vals := map[string]string{}
	scope := tn.Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(c.Type(), tn.Type()) {
			vals[c.Val().ExactString()] = c.Name()
		}
	}
	return vals
}

// --- check 3: float accumulation in a range over a map -----------------

// checkMapRangeFloat flags +=, -=, *= and /= on a floating-point lvalue
// inside a for-range over a map. Go randomizes map iteration order and
// float arithmetic is not associative, so such an accumulation can
// differ in its last bits from run to run. An lvalue indexed by the
// range key is exempt: each key updates its own slot once. Nested
// ranges over maps are checked on their own.
func checkMapRangeFloat(fset *token.FileSet, p *pkg, rs *ast.RangeStmt) []diagnostic {
	if !isMap(p, rs.X) {
		return nil
	}
	var key types.Object
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		key = p.info.ObjectOf(id)
	}
	var diags []diagnostic
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.RangeStmt); ok && isMap(p, inner.X) {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			b, ok := p.info.TypeOf(lhs).Underlying().(*types.Basic)
			if !ok || b.Info()&types.IsFloat == 0 || (key != nil && indexedBy(lhs, p, key)) {
				continue
			}
			diags = append(diags, diagnostic{
				pos:   fset.Position(as.Pos()),
				check: "maprangefloat",
				msg:   fmt.Sprintf("floating-point %s inside a range over a map: the result depends on iteration order", as.Tok),
			})
		}
		return true
	})
	return diags
}

func isMap(p *pkg, e ast.Expr) bool {
	t := p.info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// indexedBy reports whether some index expression on the lvalue's
// access path (m[k], m[k].f, (*p)[k]) is the range key itself.
func indexedBy(e ast.Expr, p *pkg, key types.Object) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			if id, ok := x.Index.(*ast.Ident); ok && p.info.ObjectOf(id) == key {
				return true
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}
