// Package cfg builds per-function control-flow graphs over go/ast for
// the flow-sensitive tablint analyzer (lockcheck), plus a small worklist
// solver for forward dataflow facts ("which locks are still held
// entering this block?").
//
// The graph is deliberately statement-granular and intra-procedural.
// Each basic block holds the simple statements and control expressions
// that execute together; compound statements contribute only their
// header expressions (an if's condition, a range's operand), never
// their bodies, so walking a block's Nodes never re-visits another
// block's work. Function literals are opaque expressions here — a
// nested func is a different function with its own graph.
//
// Fidelity notes, in the conservative direction for our analyzers:
//
//   - panic(...) and calls that cannot return end the block with an
//     edge to Exit, like return.
//   - goto resolves to its label when the label exists; a goto to a
//     missing label (ill-formed code) just terminates the block.
//   - select without a default can only leave through a clause; with a
//     default the after-block is reachable immediately.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: nodes that execute consecutively, with the
// control-flow edges in and out.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes holds simple statements and control-header expressions in
	// execution order. Compound statement bodies live in other blocks.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs, Preds []*Block
}

// Graph is one function body's control-flow graph.
type Graph struct {
	// Entry is the block entered when the function is called.
	Entry *Block
	// Exit is a virtual block every return path reaches (and where
	// deferred calls conceptually run).
	Exit *Block
	// Blocks lists every block; Entry is first, Exit is last.
	Blocks []*Block
	// Defers collects the function's defer statements in source order;
	// they execute at Exit on the paths that registered them.
	Defers []*ast.DeferStmt
}

// New builds the graph for one function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labelBlocks: map[string]*Block{}}
	g.Entry = b.newBlock()
	g.Exit = &Block{}
	b.cur = g.Entry
	b.stmt(body)
	b.jump(g.Exit)
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	b.resolveGotos()
	return g
}

// builder threads the current block and branch targets through the
// statement walk.
type builder struct {
	g   *Graph
	cur *Block // nil after a terminator: following code is unreachable

	breaks    []branchTarget // innermost-last break targets (loops, switch, select)
	continues []branchTarget // innermost-last continue targets (loops)

	labelBlocks  map[string]*Block // label name -> block the label starts
	pendingLabel string            // label waiting for the next loop/switch/select
	pendingGotos []pendingGoto
	ftTargets    []*Block // fallthrough target stack (next case body)
}

type branchTarget struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target; following code is
// unreachable until a new block starts.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		b.edge(b.cur, target)
	}
	b.cur = nil
}

// start makes target the current block.
func (b *builder) start(target *Block) { b.cur = target }

// append records a node in the current block, starting a fresh
// (unreachable) block if a terminator just ran.
func (b *builder) append(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the label pending for the construct being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, branchTarget{label, brk})
	b.continues = append(b.continues, branchTarget{label, cont})
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// target resolves a break/continue to its block: the innermost entry,
// or the named one.
func target(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Cond)
		cond := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.start(then)
		b.stmt(s.Body)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.start(els)
			b.stmt(s.Else)
			b.jump(after)
		} else {
			b.edge(cond, after)
		}
		b.start(after)
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		head := b.newBlock()
		b.jump(head)
		b.start(head)
		if s.Cond != nil {
			b.append(s.Cond)
		}
		head = b.cur // append never splits, but keep the invariant local
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.pushLoop(label, after, post)
		b.start(body)
		b.stmt(s.Body)
		b.popLoop()
		b.jump(post)
		b.start(post)
		if s.Post != nil {
			b.append(s.Post)
		}
		b.jump(head)
		b.start(after)
	case *ast.RangeStmt:
		label := b.takeLabel()
		b.append(s.X)
		head := b.cur
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(label, after, head)
		b.start(body)
		b.stmt(s.Body)
		b.popLoop()
		b.jump(head)
		b.start(after)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		after := b.newBlock()
		b.breaks = append(b.breaks, branchTarget{label, after})
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.start(blk)
			if clause.Comm != nil {
				b.append(clause.Comm)
			}
			for _, st := range clause.Body {
				b.stmt(st)
			}
			b.jump(after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		// A select with no clauses blocks forever: after keeps zero
		// preds and stays unreachable, which is exactly right.
		b.start(after)
	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.jump(lb)
		b.start(lb)
		b.labelBlocks[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.BranchStmt:
		b.append(s)
		switch s.Tok {
		case token.BREAK:
			if t := target(b.breaks, labelName(s)); t != nil {
				b.jump(t)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if t := target(b.continues, labelName(s)); t != nil {
				b.jump(t)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			b.pendingGotos = append(b.pendingGotos, pendingGoto{b.cur, labelName(s)})
			b.cur = nil
		case token.FALLTHROUGH:
			if n := len(b.ftTargets); n > 0 && b.ftTargets[n-1] != nil {
				b.jump(b.ftTargets[n-1])
			} else {
				b.cur = nil
			}
		}
	case *ast.ReturnStmt:
		b.append(s)
		b.jump(b.g.Exit)
	case *ast.DeferStmt:
		b.append(s)
		b.g.Defers = append(b.g.Defers, s)
	case *ast.ExprStmt:
		b.append(s)
		if isPanicCall(s.X) {
			b.jump(b.g.Exit)
		}
	case nil:
		// An absent optional statement.
	default:
		// Assign, Send, Go, IncDec, Decl, Empty: straight-line.
		b.append(s)
	}
}

// switchStmt builds expression and type switches: one head block
// holding the init/tag/assign plus every case expression, one block per
// clause body, fallthrough edges between consecutive clause bodies.
func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.append(init)
	}
	if tag != nil {
		b.append(tag)
	}
	if assign != nil {
		b.append(assign)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, cc := range body.List {
		clauses = append(clauses, cc.(*ast.CaseClause))
	}
	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i, cc := range clauses {
		for _, e := range cc.List {
			head.Nodes = append(head.Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		bodies[i] = b.newBlock()
		b.edge(head, bodies[i])
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.breaks = append(b.breaks, branchTarget{label, after})
	for i, cc := range clauses {
		var ft *Block
		if i+1 < len(bodies) {
			ft = bodies[i+1]
		}
		b.ftTargets = append(b.ftTargets, ft)
		b.start(bodies[i])
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.jump(after)
		b.ftTargets = b.ftTargets[:len(b.ftTargets)-1]
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.start(after)
}

func labelName(s *ast.BranchStmt) string {
	if s.Label == nil {
		return ""
	}
	return s.Label.Name
}

// isPanicCall reports whether e is a call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// resolveGotos wires goto edges once every label's block exists.
func (b *builder) resolveGotos() {
	for _, pg := range b.pendingGotos {
		if pg.from == nil {
			continue
		}
		if t, ok := b.labelBlocks[pg.label]; ok {
			b.edge(pg.from, t)
		} else {
			b.edge(pg.from, b.g.Exit)
		}
	}
}
