package analysis

import (
	"go/ast"
	"go/token"
)

// Control-flow graph construction. BuildCFG lowers one function body
// into basic blocks connected by successor/predecessor edges, the
// substrate for the dataflow analyses in dataflow.go and the
// flow-sensitive analyzers (concurrency, scratchlife).
//
// Design notes:
//
//   - Blocks hold ast.Node elements in execution order. Compound
//     statements are decomposed: an if statement contributes its Init
//     and Cond to the current block and its branches to fresh blocks,
//     so a block never contains a node whose sub-statements execute
//     elsewhere. The one exception is ast.RangeStmt, which appears as
//     the head node of its loop-header block (analyses interpret only
//     its X/Key/Value there; the body lives in its own blocks).
//   - Function literals are opaque expression nodes: their bodies are
//     NOT wired into the enclosing CFG (they execute at call time, not
//     at the point of appearance). Analyzers build a separate CFG per
//     literal.
//   - defer statements appear at their syntactic position. For the
//     lock-state analysis this models the repo idiom
//     `mu.Lock(); defer mu.Unlock()` as an unlock at the defer site,
//     which is the conservative reading the unlock-without-lock rule
//     needs.
//   - A statement-level call to the panic builtin terminates its block
//     with an edge to Exit, so code after a guard-and-panic is not
//     polluted by the panicking path.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// loopCtx tracks where break/continue jump for one enclosing loop,
// switch, or select (break only for the latter two).
type loopCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type cfgBuilder struct {
	g            *CFG
	cur          *Block
	loops        []loopCtx
	labels       map[string]*Block // goto targets
	gotos        []pendingGoto
	pendingLabel string // label of an immediately enclosing LabeledStmt
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, labels: make(map[string]*Block)}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	b.edge(b.cur, b.g.Exit)
	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, target)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock makes blk current, linking from the previous current
// block when fallthrough is possible.
func (b *cfgBuilder) startBlock(blk *Block, linkFromCur bool) {
	if linkFromCur {
		b.edge(b.cur, blk)
	}
	b.cur = blk
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		condBlk := b.cur
		join := b.newBlock()
		thenBlk := b.newBlock()
		b.startBlock(thenBlk, false)
		b.edge(condBlk, thenBlk)
		b.stmt(s.Body)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.startBlock(elseBlk, false)
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.startBlock(join, false)

	case *ast.ForStmt:
		b.add(s.Init)
		head := b.newBlock()
		b.edge(b.cur, head)
		head.Nodes = appendNode(head.Nodes, s.Cond)
		body := b.newBlock()
		post := b.newBlock()
		exit := b.newBlock()
		post.Nodes = appendNode(post.Nodes, s.Post)
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, exit)
		}
		b.loops = append(b.loops, loopCtx{label: b.pendingLabel, breakTo: exit, continueTo: post})
		b.pendingLabel = ""
		b.startBlock(body, false)
		b.stmt(s.Body)
		b.edge(b.cur, post)
		b.edge(post, head)
		b.loops = b.loops[:len(b.loops)-1]
		b.startBlock(exit, false)

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		b.edge(head, exit)
		b.loops = append(b.loops, loopCtx{label: b.pendingLabel, breakTo: exit, continueTo: head})
		b.pendingLabel = ""
		b.startBlock(body, false)
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.loops = b.loops[:len(b.loops)-1]
		b.startBlock(exit, false)

	case *ast.SwitchStmt:
		b.add(s.Init)
		b.add(s.Tag)
		b.caseClauses(s.Body.List, false)

	case *ast.TypeSwitchStmt:
		b.add(s.Init)
		b.add(s.Assign)
		b.caseClauses(s.Body.List, false)

	case *ast.SelectStmt:
		b.caseClauses(s.Body.List, true)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.startBlock(b.newBlock(), false)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.edge(b.cur, target)
		b.labels[s.Label.Name] = target
		b.startBlock(target, false)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.startBlock(b.newBlock(), false)
		}

	case nil:
		// nothing

	default:
		// Assign, IncDec, Decl, Defer, Go, Send, Empty: straight-line.
		b.add(s)
	}
}

// caseClauses lowers the clause list of a switch, type switch, or
// select. Each clause gets its own block chain; fallthrough links a
// case body to the next clause's body.
func (b *cfgBuilder) caseClauses(clauses []ast.Stmt, isSelect bool) {
	head := b.cur
	join := b.newBlock()
	b.loops = append(b.loops, loopCtx{label: b.pendingLabel, breakTo: join})
	b.pendingLabel = ""

	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	for i, cs := range clauses {
		blk := bodies[i]
		b.edge(head, blk)
		b.startBlock(blk, false)
		var stmts []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			if cs.List == nil {
				hasDefault = true
			}
			for _, e := range cs.List {
				b.add(e)
			}
			stmts = cs.Body
		case *ast.CommClause:
			if cs.Comm == nil {
				hasDefault = true
			} else {
				b.add(cs.Comm)
			}
			stmts = cs.Body
		}
		fallsThrough := false
		for _, st := range stmts {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(bodies) {
			b.edge(b.cur, bodies[i+1])
		} else {
			b.edge(b.cur, join)
		}
	}
	// A switch with no default (or an empty clause list) can skip every
	// clause. A select with no default always executes one clause.
	if (!hasDefault && !isSelect) || len(clauses) == 0 {
		b.edge(head, join)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.startBlock(join, false)
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			if label == "" || b.loops[i].label == label {
				b.edge(b.cur, b.loops[i].breakTo)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			if b.loops[i].continueTo != nil && (label == "" || b.loops[i].label == label) {
				b.edge(b.cur, b.loops[i].continueTo)
				break
			}
		}
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
	}
	b.startBlock(b.newBlock(), false)
}

func appendNode(nodes []ast.Node, n ast.Node) []ast.Node {
	if n == nil {
		return nodes
	}
	return append(nodes, n)
}

// isPanicCall reports whether e is a direct call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic" && id.Obj == nil
}
