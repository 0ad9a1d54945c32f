package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"spatialsel/internal/lint/cfg"
)

// LockOrder returns the lockorder analyzer.
//
// Invariant: the package's mutexes form a consistent acquisition order, and
// no unknown code runs inside a critical section. Two bug classes, both
// flow-sensitive:
//
//   - AB-BA cycles. Whenever lock B is acquired while lock A is held —
//     directly, or inside a same-package callee — the package-wide
//     acquisition graph gains the edge A→B. A cycle in that graph is a
//     deadlock waiting for the right interleaving. PR 6 fixed exactly this
//     by hand: obs.Registry.Snapshot sampled GaugeFunc closures under the
//     registry lock while the watchdog's closures took their own mutex in
//     the opposite order.
//
//   - Calls to unknown functions or closures while a mutex is held. A call
//     through a function value (stored callback, parameter, field) cannot
//     be ordered against anything — the callee is chosen at runtime and may
//     acquire arbitrary locks, which is how the Snapshot deadlock got in.
//     Sample the value outside the critical section instead.
//
// Locks are tracked as classes — "Registry.mu" means the mu field of any
// Registry — because an ordering discipline is a property of the type, not
// of one instance. Acquiring a class that is already held (recursion, or
// two instances of the same type) is reported directly: sync mutexes are
// not reentrant, and instance-order locking needs an explicit, documented
// tie-break.
//
// A method named ...Locked is checked as running with its receiver's mutex
// already held (heldOnEntry), so moving a call out of a critical section into
// such a helper does not move it out of the analysis.
//
// Same-package static callees contribute their transitively-acquired locks
// (a fixpoint over the package call graph); cross-package calls are trusted
// to manage their own, coarser-grained locks. Function literals' bodies are
// analyzed as functions in their own right.
func LockOrder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "package-wide mutex acquisition order must be acyclic; no closure calls under a held lock",
	}
	a.Run = func(pass *Pass) {
		summaries := lockSummaries(pass)
		edges := map[[2]string]*lockEdge{}
		for _, fn := range functionBodies(pass) {
			scanFunctionLocks(pass, fn, summaries, edges)
		}
		reportLockCycles(pass, edges)
	}
	return a
}

// lockEdge is one witnessed "from held while to acquired" fact.
type lockEdge struct {
	from, to string
	pos      token.Pos // where `to` was acquired with `from` held
	fn       string    // function containing the witness
}

// lockSummaries computes, for every declared function of the package, the
// set of lock identities it may acquire — directly or through same-package
// static callees — by fixpoint over the package call graph. Function
// literals are excluded: they run on their own schedule, and calls through
// them are flagged as dynamic at the call site instead.
func lockSummaries(pass *Pass) map[*types.Func]map[string]bool {
	direct := map[*types.Func]map[string]bool{}
	callees := map[*types.Func][]*types.Func{}
	var order []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			order = append(order, obj)
			acquired := map[string]bool{}
			walkShallow(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op, ok := classifyMutexOp(pass, fd.Name.Name, call); ok && !op.unloc {
					acquired[op.id] = true
				} else if callee := staticCallee(pass, call); callee != nil && callee.Pkg() == pass.Types {
					callees[obj] = append(callees[obj], callee)
				}
				return true
			})
			direct[obj] = acquired
		}
	}
	// Fixpoint: propagate callee acquisitions up until stable. The package
	// call graph is small; quadratic rounds are fine.
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			sum := direct[fn]
			for _, callee := range callees[fn] {
				for id := range direct[callee] {
					if !sum[id] {
						sum[id] = true
						changed = true
					}
				}
			}
		}
	}
	return direct
}

// scanFunctionLocks runs the held-lock dataflow over one function and, in a
// single deterministic reporting pass, collects acquisition-graph edges and
// flags dynamic calls under a held lock.
func scanFunctionLocks(pass *Pass, fn fnBody, summaries map[*types.Func]map[string]bool, edges map[[2]string]*lockEdge) {
	g := buildCFG(fn)
	transfer := func(blk *cfg.Block, f map[string]token.Pos) map[string]token.Pos {
		for _, n := range blk.Nodes {
			lockTransferNode(pass, fn.name, n, f, false)
		}
		return f
	}
	lat := lockSetLattice()
	in := cfg.Forward(g, lat, heldOnEntry(pass, fn), transfer)
	addEdge := func(from, to string, pos token.Pos) {
		key := [2]string{from, to}
		if e, ok := edges[key]; !ok || pos < e.pos {
			edges[key] = &lockEdge{from: from, to: to, pos: pos, fn: fn.name}
		}
	}
	for _, blk := range g.Blocks {
		f := lat.Clone(in[blk])
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				continue
			}
			for _, call := range shallowCalls(n) {
				if op, ok := classifyMutexOp(pass, fn.name, call); ok {
					if op.unloc {
						delete(f, op.lockKey())
						continue
					}
					if _, held := f[op.lockKey()]; held {
						pass.Reportf(call.Pos(),
							"%s acquires %s while an instance of it is already held (since %s); sync mutexes are not reentrant and instance-order locking needs a documented tie-break",
							fn.name, lockDisplay(op.lockKey()), shortPos(pass, f[op.lockKey()]))
					} else {
						for _, heldKey := range sortedLockKeys(f) {
							addEdge(lockBase(heldKey), op.id, call.Pos())
						}
						f[op.lockKey()] = call.Pos()
					}
					continue
				}
				if len(f) == 0 {
					continue
				}
				if callee := staticCallee(pass, call); callee != nil {
					if callee.Pkg() == pass.Types {
						var ids []string
						for id := range summaries[callee] {
							ids = append(ids, id)
						}
						sort.Strings(ids)
						for _, id := range ids {
							for _, heldKey := range sortedLockKeys(f) {
								if lockBase(heldKey) == id {
									pass.Reportf(call.Pos(),
										"%s calls %s, which acquires %s, while already holding it (acquired at %s); this self-deadlocks on the same instance",
										fn.name, callee.Name(), lockDisplay(id), shortPos(pass, f[heldKey]))
									continue
								}
								addEdge(lockBase(heldKey), id, call.Pos())
							}
						}
					}
					continue
				}
				if desc, dyn := dynamicCallee(pass, call); dyn {
					pass.Reportf(call.Pos(),
						"%s calls %s through a function value while holding %s; an unknown callee can acquire locks in any order (the Registry.Snapshot deadlock class) — call it outside the critical section",
						fn.name, desc, heldDisplay(f))
				}
			}
		}
	}
}

// heldOnEntry is the lock set a function starts with. A method named
// ...Locked runs, by this code base's convention, with its receiver's mutex
// held by the caller, so a call or an acquisition factored out of a critical
// section into such a helper is still checked as inside it. The receiver's
// struct must declare exactly one sync.Mutex or sync.RWMutex field for the
// lock to be known, and a method that locks it itself is not following the
// convention; anything else starts empty.
func heldOnEntry(pass *Pass, fn fnBody) map[string]token.Pos {
	held := map[string]token.Pos{}
	if fn.decl == nil || fn.decl.Recv == nil || !strings.HasSuffix(fn.decl.Name.Name, "Locked") {
		return held
	}
	recv := pass.Info.TypeOf(fn.decl.Recv.List[0].Type)
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return held
	}
	st, _ := named.Underlying().(*types.Struct)
	var ids []string
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if t := st.Field(i).Type().String(); t == "sync.Mutex" || t == "sync.RWMutex" {
			ids = append(ids, named.Obj().Name()+"."+st.Field(i).Name())
		}
	}
	if len(ids) != 1 {
		return held
	}
	self := false
	walkShallow(fn.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			op, isOp := classifyMutexOp(pass, fn.name, call)
			self = self || isOp && op.id == ids[0]
		}
		return !self
	})
	if !self {
		held[ids[0]] = fn.decl.Pos()
	}
	return held
}

// lockBase strips the read-mode suffix: for ordering purposes RLock and Lock
// of the same mutex are the same node.
func lockBase(key string) string { return strings.TrimSuffix(key, "/r") }

// heldDisplay renders the held set for a diagnostic.
func heldDisplay(f map[string]token.Pos) string {
	keys := sortedLockKeys(f)
	for i, k := range keys {
		keys[i] = lockDisplay(k)
	}
	return strings.Join(keys, ", ")
}

// reportLockCycles finds strongly connected components of the package's
// acquisition graph and reports each cycle once, at its lexically first
// witness, naming the opposing witness so both sides of the AB-BA are in
// the message.
func reportLockCycles(pass *Pass, edges map[[2]string]*lockEdge) {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		nodes[key[0]], nodes[key[1]] = true, true
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	var names []string
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, scc := range tarjanSCC(names, adj) {
		if len(scc) < 2 {
			// Self-loops are reported at the acquisition site directly.
			continue
		}
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		var member []*lockEdge
		for key, e := range edges {
			if inSCC[key[0]] && inSCC[key[1]] {
				member = append(member, e)
			}
		}
		sort.Slice(member, func(i, j int) bool { return member[i].pos < member[j].pos })
		first := member[0]
		var others []string
		for _, e := range member[1:] {
			others = append(others, fmt.Sprintf("%s→%s at %s (in %s)", e.from, e.to, shortPos(pass, e.pos), e.fn))
		}
		pass.Reportf(first.pos,
			"lock-order cycle among {%s}: %s acquired before %s here (in %s), but %s — an AB-BA deadlock under the right interleaving",
			strings.Join(scc, ", "), first.from, first.to, first.fn, strings.Join(others, "; "))
	}
}

// tarjanSCC returns the strongly connected components of the graph, each
// sorted, in deterministic order (by smallest member).
func tarjanSCC(names []string, adj map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range names {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}
