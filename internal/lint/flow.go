package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"spatialsel/internal/lint/cfg"
)

// This file holds the helpers shared by the flow-sensitive analyzers
// (lockorder, unlockpath): enumerating the function bodies of a package,
// canonicalizing mutex identities, and classifying calls, all on top of the
// internal/lint/cfg graphs.

// fnBody is one analyzable function: a declaration or a function literal.
// Literals are analyzed as functions in their own right — they run on their
// own schedule (goroutine bodies, stored callbacks), so their lock and file
// state must balance independently of the enclosing function.
type fnBody struct {
	name string
	decl *ast.FuncDecl // nil for literals
	body *ast.BlockStmt
}

// functionBodies enumerates every function declaration and literal of the
// package in source order.
func functionBodies(pass *Pass) []fnBody {
	var out []fnBody
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if t := recvTypeName(fd.Recv.List[0].Type); t != "" {
					name = t + "." + name
				}
			}
			out = append(out, fnBody{name: name, decl: fd, body: fd.Body})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, fnBody{name: name + ".func", body: lit.Body})
				}
				return true
			})
		}
	}
	return out
}

// recvTypeName extracts the bare receiver type name from a receiver field.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	}
	return ""
}

// buildCFG constructs the control-flow graph of one function body.
func buildCFG(fn fnBody) *cfg.Graph { return cfg.New(fn.name, fn.body) }

// walkShallow visits nodes of a subtree without descending into function
// literals: within a CFG block, a literal is a value, not executed code.
func walkShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		return visit(c)
	})
}

// shallowCalls returns the calls in a CFG node in source order, skipping
// function-literal bodies. Deferred calls are excluded — defer is control
// flow, not an immediate call — and handled explicitly by the analyzers.
func shallowCalls(n ast.Node) []*ast.CallExpr {
	if _, ok := n.(*ast.DeferStmt); ok {
		return nil
	}
	var out []*ast.CallExpr
	walkShallow(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.DeferStmt); ok {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			out = append(out, call)
		}
		return true
	})
	return out
}

// ---- mutex identities ---------------------------------------------------

// mutexOp is one classified sync call: Lock/Unlock/RLock/RUnlock on a
// sync.Mutex, sync.RWMutex, or sync.Locker value.
type mutexOp struct {
	call  *ast.CallExpr
	name  string // method name: Lock, Unlock, RLock, RUnlock
	id    string // canonical lock identity, e.g. "WAL.mu"
	read  bool   // RLock/RUnlock
	unloc bool   // Unlock/RUnlock
}

// classifyMutexOp recognizes calls to the sync package's locking methods
// (including promoted methods of embedded mutexes and sync.Locker values).
// TryLock variants are deliberately ignored: their acquisition is
// conditional, and the engine does not use them.
func classifyMutexOp(pass *Pass, fnName string, call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexOp{}, false
	}
	m := fn.Name()
	if m != "Lock" && m != "Unlock" && m != "RLock" && m != "RUnlock" {
		return mutexOp{}, false
	}
	return mutexOp{
		call:  call,
		name:  m,
		id:    lockIdentity(pass, fnName, sel.X),
		read:  m == "RLock" || m == "RUnlock",
		unloc: m == "Unlock" || m == "RUnlock",
	}, true
}

// lockKey is the dataflow key: identity plus read/write mode, so an RLock
// obligation is only discharged by RUnlock and vice versa.
func (op mutexOp) lockKey() string {
	if op.read {
		return op.id + "/r"
	}
	return op.id
}

// lockIdentity canonicalizes the mutex-bearing expression so acquisitions of
// the same lock from different functions coincide:
//
//   - a struct field resolves to "OwnerType.field" (w.mu → "WAL.mu"),
//     merging every instance of the type — lock *classes*, which is what a
//     package-wide ordering discipline is about;
//   - a package-level variable resolves to its name;
//   - a local resolves to "name@file:line" of its declaration, keeping two
//     functions' unrelated locals apart;
//   - anything else falls back to the printed expression.
func lockIdentity(pass *Pass, fnName string, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := pass.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return named.Obj().Name() + "." + x.Sel.Name
			}
			return x.Sel.Name
		}
		return exprText(x)
	case *ast.Ident:
		obj := pass.Info.Uses[x]
		if obj == nil {
			return x.Name
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Parent() == pass.Types.Scope() {
				return v.Name() // package-level var
			}
			p := pass.Fset.Position(v.Pos())
			return fmt.Sprintf("%s@%s:%d", v.Name(), filepath.Base(p.Filename), p.Line)
		}
		return x.Name
	default:
		return exprText(e)
	}
}

// exprText renders a short source-like form of an expression for identities
// and diagnostics.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.CallExpr:
		return exprText(x.Fun) + "()"
	case *ast.ParenExpr:
		return exprText(x.X)
	}
	return fmt.Sprintf("<%T>", e)
}

// shortPos renders a position as base-filename:line for secondary locations
// inside diagnostic messages (primary positions come from Diagnostic.Pos).
func shortPos(pass *Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// staticCallee resolves a call to the *types.Func it statically dispatches
// to, or nil for dynamic calls (function values, stored closures) and
// builtins/conversions.
func staticCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: F[T](x) wraps the callee in an index expression.
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// dynamicCallee describes a call through a function value — a stored
// closure, callback field, or function parameter — returning a printable
// description and true when the call cannot be resolved statically. Type
// conversions and builtins are not calls at all and return false.
func dynamicCallee(pass *Pass, call *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pass.Info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return "", false
	}
	if staticCallee(pass, call) != nil {
		return "", false
	}
	switch x := fun.(type) {
	case *ast.Ident:
		if _, ok := pass.Info.Uses[x].(*types.Var); ok {
			return x.Name, true
		}
	case *ast.SelectorExpr:
		if obj := pass.Info.Uses[x.Sel]; obj != nil {
			if _, ok := obj.(*types.Var); ok {
				return exprText(x), true
			}
		}
	case *ast.FuncLit:
		// An immediately-invoked literal is analyzed as its own function.
		return "", false
	case *ast.CallExpr, *ast.IndexExpr, *ast.IndexListExpr:
		return exprText(fun), true
	}
	return "", false
}

// ---- held-lock dataflow -------------------------------------------------

// lockSetLattice is the fact domain shared by lockorder and unlockpath: the
// set of lock keys that may be held, each carrying the earliest acquisition
// position (min keeps merges deterministic and monotone).
func lockSetLattice() cfg.Lattice[map[string]token.Pos] {
	return cfg.Lattice[map[string]token.Pos]{
		Bottom: func() map[string]token.Pos { return map[string]token.Pos{} },
		Clone: func(m map[string]token.Pos) map[string]token.Pos {
			c := make(map[string]token.Pos, len(m))
			for k, v := range m {
				c[k] = v
			}
			return c
		},
		Join: func(a, b map[string]token.Pos) map[string]token.Pos {
			for k, p := range b {
				if q, ok := a[k]; !ok || p < q {
					a[k] = p
				}
			}
			return a
		},
		Equal: func(a, b map[string]token.Pos) bool {
			if len(a) != len(b) {
				return false
			}
			for k, p := range a {
				if q, ok := b[k]; !ok || p != q {
					return false
				}
			}
			return true
		},
	}
}

// lockTransferNode applies one CFG node's effect to a held-lock fact.
// deferDischarges selects the analyzer's semantics: unlockpath treats a
// `defer mu.Unlock()` as discharging the obligation for the rest of the path
// (it will run on every route to exit, panics included), while lockorder
// keeps the lock held — the mutex really is locked until the function
// returns, which is what acquisition ordering is about.
func lockTransferNode(pass *Pass, fnName string, n ast.Node, f map[string]token.Pos, deferDischarges bool) {
	if d, ok := n.(*ast.DeferStmt); ok {
		if !deferDischarges {
			return
		}
		// Deep scan, literals included: `defer func() { mu.Unlock() }()`
		// discharges too.
		ast.Inspect(d.Call, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if op, ok := classifyMutexOp(pass, fnName, call); ok && op.unloc {
					delete(f, op.lockKey())
				}
			}
			return true
		})
		return
	}
	for _, call := range shallowCalls(n) {
		op, ok := classifyMutexOp(pass, fnName, call)
		if !ok {
			continue
		}
		if op.unloc {
			delete(f, op.lockKey())
		} else if _, held := f[op.lockKey()]; !held {
			f[op.lockKey()] = call.Pos()
		}
	}
}

// sortedLockKeys returns the fact's keys in stable order.
func sortedLockKeys(f map[string]token.Pos) []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockDisplay renders a lock key for diagnostics: "WAL.mu" or "WAL.mu (read)".
func lockDisplay(key string) string {
	if base, ok := strings.CutSuffix(key, "/r"); ok {
		return base + " (read)"
	}
	return key
}
