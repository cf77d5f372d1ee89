package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ResetComplete verifies the arena-reuse contract: for every struct type
// with a Reset method, each field must be re-initialized somewhere in Reset
// (directly, through a helper method called on the same receiver, or by
// resetting/clearing the field itself) or carry an explicit
// //manetsim:resetsafe directive stating why stale state is correct.
//
// This is the drift class reusable Worlds are vulnerable to: a field added
// to a pooled struct but forgotten in Reset leaks the previous run's state
// into the next, and the failure surfaces later as a flaky golden digest
// with no pointer to the cause.
//
// A field counts as handled when the Reset call graph (same-receiver
// methods, any depth) contains any of:
//
//   - an assignment whose left-hand side is rooted at the field
//     (r.f = ..., r.f[i] = ..., r.f.sub = ..., r.f++),
//   - a whole-receiver assignment (*r = T{...}),
//   - a method call on the field (r.f.Reset(), r.src.Seed(seed)),
//   - the field's address escaping (&r.f passed to an initializer),
//   - the field passed to the clear, copy or delete builtins.
//
// The same contract has a constructor side: a run's initial state is
// written once, in Reset. So a package-level New* function returning *T,
// where T has a Reset method, must return only values it called Reset on
// (or the result of another such constructor it delegates to, or nil). A
// constructor that spells the initial state out in a struct literal instead
// is a second copy of Reset that nothing keeps in step.
var ResetComplete = &Analyzer{
	Name: "resetcomplete",
	Doc: "every field of a struct with a Reset method must be assigned in Reset " +
		"or marked //manetsim:resetsafe, and its New* constructors must end with Reset",
	Run: runResetComplete,
}

// methodInfo is the per-method summary used to close Reset over its
// same-receiver helper calls.
type methodInfo struct {
	decl     *ast.FuncDecl
	handled  map[string]bool // fields written/initialized here
	resetAll bool            // contains *recv = ... (wipes every field)
	calls    []string        // same-receiver methods invoked
}

func runResetComplete(pass *Pass) error {
	if !pass.SimPackage {
		return nil
	}
	// typeName -> methodName -> summary, and typeName -> struct decl.
	methods := map[string]map[string]*methodInfo{}
	structs := map[string]*ast.StructType{}
	var funcs []*ast.FuncDecl

	files := pass.NonTestFiles()
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						structs[ts.Name.Name] = st
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil && d.Body != nil {
					funcs = append(funcs, d)
				}
				recvType, recvName := receiver(d)
				if recvType == "" || d.Body == nil {
					continue
				}
				m := methods[recvType]
				if m == nil {
					m = map[string]*methodInfo{}
					methods[recvType] = m
				}
				m[d.Name.Name] = summarizeMethod(d, recvName)
			}
		}
	}

	for typeName, m := range methods {
		reset, ok := m["Reset"]
		if !ok {
			continue
		}
		st, ok := structs[typeName]
		if !ok {
			continue
		}
		handled, resetAll := closeOverCalls(m, reset)
		if resetAll {
			continue
		}
		for _, field := range st.Fields.List {
			if len(field.Names) == 0 {
				// Embedded field: handled name is the type's base name.
				if name := embeddedName(field.Type); name != "" && !handled[name] && !pass.ResetSafe(field.Pos()) {
					pass.Reportf(field.Pos(), "embedded field %s of %s is not reset by (*%s).Reset; reset it or mark it //manetsim:resetsafe", name, typeName, typeName)
				}
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" || handled[name.Name] {
					continue
				}
				if pass.ResetSafe(name.Pos()) {
					continue
				}
				pass.Reportf(name.Pos(), "field %s of %s is not reset by (*%s).Reset; reset it or mark it //manetsim:resetsafe", name.Name, typeName, typeName)
			}
		}
	}
	checkConstructors(pass, funcs, methods)
	return nil
}

// checkConstructors reports every New* function returning *T, for a T with
// a Reset method, that does not end by calling Reset on the value it
// returns or by returning another such constructor's result.
func checkConstructors(pass *Pass, funcs []*ast.FuncDecl, methods map[string]map[string]*methodInfo) {
	built := map[string]string{} // constructor name -> the type it returns
	for _, d := range funcs {
		if res := d.Type.Results; strings.HasPrefix(d.Name.Name, "New") && res != nil && len(res.List) > 0 {
			if star, ok := res.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && methods[id.Name]["Reset"] != nil {
					built[d.Name.Name] = id.Name
				}
			}
		}
	}
	for _, d := range funcs {
		if typeName, ok := built[d.Name.Name]; ok && !endsWithReset(d.Body.List, built, typeName) {
			pass.Reportf(d.Name.Pos(), "constructor %s does not end with (*%s).Reset; allocate in %s and write the per-run state in Reset", d.Name.Name, typeName, d.Name.Name)
		}
	}
}

// endsWithReset reports whether a constructor body ends `x.Reset(...);
// return x, ...` or `return NewOther(...)` for a constructor of the same
// type.
func endsWithReset(body []ast.Stmt, built map[string]string, typeName string) bool {
	n := len(body)
	if n == 0 {
		return false
	}
	ret, ok := body[n-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	switch v := ret.Results[0].(type) {
	case *ast.CallExpr:
		return built[types.ExprString(v.Fun)] == typeName
	case *ast.Ident:
		if n < 2 {
			return false
		}
		stmt, ok := body[n-2].(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := stmt.X.(*ast.CallExpr)
		return ok && types.ExprString(call.Fun) == v.Name+".Reset"
	}
	return false
}

// closeOverCalls unions the handled-field sets reachable from Reset through
// same-receiver method calls.
func closeOverCalls(m map[string]*methodInfo, root *methodInfo) (map[string]bool, bool) {
	handled := map[string]bool{}
	resetAll := false
	seen := map[*methodInfo]bool{}
	var visit func(mi *methodInfo)
	visit = func(mi *methodInfo) {
		if mi == nil || seen[mi] {
			return
		}
		seen[mi] = true
		for f := range mi.handled {
			handled[f] = true
		}
		if mi.resetAll {
			resetAll = true
		}
		for _, callee := range mi.calls {
			visit(m[callee])
		}
	}
	visit(root)
	return handled, resetAll
}

// receiver returns the receiver's type name (sans pointer) and binding
// name, or "" when there is no usable receiver.
func receiver(d *ast.FuncDecl) (typeName, recvName string) {
	if d.Recv == nil || len(d.Recv.List) != 1 {
		return "", ""
	}
	f := d.Recv.List[0]
	t := f.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip type parameters (T[P]) if present.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if len(f.Names) == 1 {
		return id.Name, f.Names[0].Name
	}
	return id.Name, ""
}

func embeddedName(t ast.Expr) string {
	switch v := t.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return embeddedName(v.X)
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// summarizeMethod records which receiver fields a method initializes and
// which sibling methods it calls.
func summarizeMethod(d *ast.FuncDecl, recvName string) *methodInfo {
	mi := &methodInfo{decl: d, handled: map[string]bool{}}
	if recvName == "" || recvName == "_" {
		return mi
	}
	mark := func(e ast.Expr) {
		if f := fieldOfRecv(e, recvName); f != "" {
			mi.handled[f] = true
		}
	}
	ast.Inspect(d.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if isStarRecv(lhs, recvName) {
					mi.resetAll = true
					continue
				}
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(v.X)
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				mark(v.X)
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(v.Fun).(type) {
			case *ast.SelectorExpr:
				if f := fieldOfRecv(fun.X, recvName); f != "" {
					// Method call on the field: r.f.Reset(), r.src.Seed().
					mi.handled[f] = true
				} else if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok && id.Name == recvName {
					// Same-receiver helper: r.helper(...).
					mi.calls = append(mi.calls, fun.Sel.Name)
				}
			case *ast.Ident:
				switch fun.Name {
				case "clear", "copy", "delete":
					if len(v.Args) > 0 {
						mark(v.Args[0])
					}
				}
			}
		}
		return true
	})
	return mi
}

// fieldOfRecv resolves an expression to the receiver field it is rooted at:
// r.f, r.f[i], r.f.sub, *r.f all yield "f"; anything not rooted at the
// receiver yields "".
func fieldOfRecv(e ast.Expr, recvName string) string {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(v.X).(*ast.Ident); ok && id.Name == recvName {
				return v.Sel.Name
			}
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return ""
		}
	}
}

// isStarRecv reports whether e is *r (a whole-receiver overwrite).
func isStarRecv(e ast.Expr, recvName string) bool {
	star, ok := ast.Unparen(e).(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(star.X).(*ast.Ident)
	return ok && id.Name == recvName
}
