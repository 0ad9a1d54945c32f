// Package cfg builds per-function control-flow graphs from the standard
// library's go/ast — no golang.org/x/tools — for the flow-sensitive sdbvet
// analyzers (lockorder, unlockpath). The graph is deliberately small: basic
// blocks of non-nested statements and expressions, edges for
// if/for/range/switch/select/goto/defer-relevant control flow, a synthetic
// entry and exit, and a forward-dataflow fixpoint engine on top
// (dataflow.go).
//
// Two properties the analyzers rely on:
//
//   - Block nodes never overlap: a compound statement (if, for, switch) is
//     decomposed into its parts, so walking every block's Nodes visits each
//     atomic statement exactly once. Function literals are the one exception
//     — a literal appears inside whichever node carries it, and analyzers
//     that care must skip literal subtrees (they execute on their own
//     schedule, not the enclosing function's).
//
//   - Every terminating statement (return, explicit panic(...) call, an
//     empty select) has an edge to the synthetic Exit block, so "reaches
//     exit" means "the function actually finishes here" — including the
//     panic unwind, on which deferred calls still run.
//
// The builder needs no type information; name shadowing of the panic builtin
// would confuse it, which the engine does not do.
package cfg

import (
	"go/ast"
	"go/token"
)

// Graph is the control-flow graph of one function body. Blocks[0] is the
// entry block and has no predecessors; Exit is the synthetic exit block every
// return/panic/fall-off-the-end edge targets.
type Graph struct {
	Name   string // function name, for dumps and diagnostics
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// Block is one basic block: a run of non-branching nodes plus its control
// edges. Kind is a human-readable tag ("for.body", "select.case", ...) used
// by the golden dumps; analyzers should not dispatch on it.
type Block struct {
	Index int
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// New builds the graph of a function body. The name is carried through to
// dumps and diagnostics only.
func New(name string, body *ast.BlockStmt) *Graph {
	g := &Graph{Name: name}
	b := &builder{g: g, labels: map[string]*Block{}}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.cur = g.Entry
	b.stmtList(body.List)
	b.edgeTo(g.Exit)
	return g
}

// builder carries the construction state: the block under construction, the
// break/continue frame stack, named label blocks, and the fallthrough target
// of the switch clause being built.
type builder struct {
	g            *Graph
	cur          *Block
	frames       []frame
	labels       map[string]*Block
	pendingLabel string
	nextCase     *Block
}

// frame is one enclosing breakable construct: loops carry a continue target,
// switch/select leave it nil.
type frame struct {
	label string
	brk   *Block
	cont  *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge links from → to exactly once.
func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// edgeTo links the current block to the target.
func (b *builder) edgeTo(to *Block) { b.edge(b.cur, to) }

// terminated parks construction in a fresh predecessor-less block, so dead
// code after return/break/goto builds somewhere harmless.
func (b *builder) terminated() { b.cur = b.newBlock("unreachable") }

// add appends an atomic node to the current block.
func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// takeLabel consumes the label of the statement being built, if the builder
// just passed through a LabeledStmt.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// label returns (creating on first reference, which may be a forward goto)
// the block a named label targets.
func (b *builder) label(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

// findFrame locates the innermost frame matching the label ("" = innermost
// of any kind for break, innermost loop for continue).
func (b *builder) findFrame(label string, needCont bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needCont && f.cont == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.label(s.Label.Name)
		b.edgeTo(lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		b.edge(head, then)
		var els *Block
		if s.Else != nil {
			els = b.newBlock("if.else")
			b.edge(head, els)
		} else {
			b.edge(head, done)
		}
		b.cur = then
		b.stmtList(s.Body.List)
		b.edgeTo(done)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.edgeTo(done)
		}
		b.cur = done

	case *ast.ForStmt:
		lbl := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		b.edgeTo(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, done)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		b.frames = append(b.frames, frame{label: lbl, brk: done, cont: cont})
		b.cur = body
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		if post != nil {
			b.edgeTo(post)
			b.cur = post
			b.stmt(s.Post)
			b.edgeTo(head)
		} else {
			b.edgeTo(head)
		}
		b.cur = done

	case *ast.RangeStmt:
		lbl := b.takeLabel()
		b.add(s.X)
		head := b.newBlock("range.head")
		b.edgeTo(head)
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.edge(head, body)
		b.edge(head, done)
		b.frames = append(b.frames, frame{label: lbl, brk: done, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		b.edgeTo(head)
		b.cur = done

	case *ast.SwitchStmt:
		lbl := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(lbl, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		lbl := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.caseClauses(lbl, s.Body.List, s.Assign)

	case *ast.SelectStmt:
		lbl := b.takeLabel()
		if len(s.Body.List) == 0 {
			// select {} blocks forever: terminate the path.
			b.edgeTo(b.g.Exit)
			b.terminated()
			return
		}
		head := b.cur
		done := b.newBlock("select.done")
		b.frames = append(b.frames, frame{label: lbl, brk: done})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
			}
			cb := b.newBlock(kind)
			b.edge(head, cb)
			b.cur = cb
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edgeTo(done)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(label, false); f != nil {
				b.edgeTo(f.brk)
			}
			b.terminated()
		case token.CONTINUE:
			if f := b.findFrame(label, true); f != nil {
				b.edgeTo(f.cont)
			}
			b.terminated()
		case token.GOTO:
			b.edgeTo(b.label(label))
			b.terminated()
		case token.FALLTHROUGH:
			if b.nextCase != nil {
				b.edgeTo(b.nextCase)
			}
			b.terminated()
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.g.Exit)
		b.terminated()

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			// Explicit panic terminates the path; deferred calls still run on
			// the unwind, which is why analyzers model defer as discharging
			// obligations for every path to Exit.
			b.edgeTo(b.g.Exit)
			b.terminated()
		}

	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt,
		// EmptyStmt: atomic from the graph's point of view.
		b.add(s)
	}
}

// caseClauses builds the shared switch/type-switch clause structure: every
// clause is entered from the head, fallthrough chains to the next clause,
// and a missing default adds a head → done edge.
func (b *builder) caseClauses(label string, list []ast.Stmt, assign ast.Stmt) {
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	done := b.newBlock("switch.done")
	b.frames = append(b.frames, frame{label: label, brk: done})
	blocks := make([]*Block, len(list))
	hasDefault := false
	for i, c := range list {
		cc := c.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(kind)
		b.edge(head, blocks[i])
	}
	if !hasDefault {
		b.edge(head, done)
	}
	savedNext := b.nextCase
	for i, c := range list {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if i+1 < len(blocks) {
			b.nextCase = blocks[i+1]
		} else {
			b.nextCase = nil
		}
		b.stmtList(cc.Body)
		b.edgeTo(done)
	}
	b.nextCase = savedNext
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

// isPanicCall matches a direct call of the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
