// Package cfg builds intraprocedural control-flow graphs over Go function
// bodies, using only the standard library's go/ast and go/types. It is the
// flow-sensitive layer under the HTTP status analysis (summary's status
// classification and httpguard), which must know what every path through
// a handler writes before it returns.
//
// The graph is deliberately simple: a Block is a maximal straight-line
// sequence of ast.Nodes (statements, plus the condition/tag expressions of
// the branches that end a block, so calls buried in conditions are still
// visible to transfer functions), and edges follow Go's control
// constructs — if/else, for/range loops with break/continue (labeled or
// not), switch/type-switch with fallthrough, select, goto, and the
// terminating calls panic, os.Exit, runtime.Goexit, log.Fatal* and
// (*testing.T).Fatal*-style methods, which edge straight to Exit.
// Function literals are NOT descended into: a FuncLit body is a separate
// function with its own graph (build one per literal).
//
// Defer statements get no special edges: they appear in-order as ordinary
// nodes, and every analyzer decides what a registered defer means for the
// paths that reach Exit.
package cfg

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Block is one basic block.
type Block struct {
	// Index is the block's position in Graph.Blocks, stable for a given
	// build.
	Index int
	// Kind names the construct that created the block ("entry", "if.then",
	// "for.body", ...), for tests and debugging.
	Kind string
	// Nodes are the statements and control expressions of the block, in
	// execution order.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Kind) }

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the unique entry block; Exit is the unique exit block that
	// every return, terminating call, and fall-off-the-end path reaches.
	Entry, Exit *Block
	// Blocks lists every block, Entry first and Exit last. Blocks created
	// for unreachable code are present but have no predecessors.
	Blocks []*Block
}

// New builds the graph of body. info may be nil, in which case only the
// builtin panic is recognized as terminating.
func New(body *ast.BlockStmt, info *types.Info) *Graph {
	g := &Graph{}
	b := &builder{g: g, info: info, labels: make(map[string]*Block)}
	g.Entry = b.newBlock("entry")
	g.Exit = &Block{Kind: "exit"}
	b.cur = g.Entry
	b.stmt(body)
	b.edge(b.cur, g.Exit)

	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label    string // the statement label, if any
	isLoop   bool   // continue targets loops only
	brk      *Block
	cont     *Block // nil for switch/select
	fallthru *Block // next case clause, switch only
}

type builder struct {
	g      *Graph
	info   *types.Info
	cur    *Block
	frames []frame
	// labels maps a label name to its block, created on first use so
	// forward gotos resolve.
	labels map[string]*Block
	// pendingLabel is the label of the statement about to be built, so the
	// loop/switch it names can bind break/continue for it.
	pendingLabel string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jumpTo ends the current block with an edge to target and continues in a
// fresh unreachable block (code after an unconditional jump).
func (b *builder) jumpTo(target *Block, kind string) {
	b.edge(b.cur, target)
	b.cur = b.newBlock(kind)
}

// labelBlock returns (creating on demand) the block a label names.
func (b *builder) labelBlock(name string) *Block {
	blk, ok := b.labels[name]
	if !ok {
		blk = b.newBlock("label." + name)
		b.labels[name] = blk
	}
	return blk
}

// takeLabel consumes the pending statement label.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.isTerminalCall(call) {
			b.jumpTo(b.g.Exit, "dead")
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.jumpTo(b.g.Exit, "dead")
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.takeLabelAnd(func(label string) { b.switchStmt(label, s.Init, s.Tag, nil, s.Body) })
	case *ast.TypeSwitchStmt:
		b.takeLabelAnd(func(label string) { b.switchStmt(label, s.Init, nil, s.Assign, s.Body) })
	case *ast.SelectStmt:
		b.selectStmt(s)
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, DeferStmt:
		// straight-line statements.
		b.add(s)
	}
}

func (b *builder) takeLabelAnd(build func(label string)) {
	build(b.takeLabel())
}

func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if label == "" || f.label == label {
				b.jumpTo(f.brk, "dead")
				return
			}
		}
	case "continue":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.isLoop && (label == "" || f.label == label) {
				b.jumpTo(f.cont, "dead")
				return
			}
		}
	case "goto":
		b.jumpTo(b.labelBlock(label), "dead")
		return
	case "fallthrough":
		for i := len(b.frames) - 1; i >= 0; i-- {
			if f := b.frames[i]; f.fallthru != nil {
				b.jumpTo(f.fallthru, "dead")
				return
			}
		}
	}
	// Malformed branch (label not found): treat as a no-op so a best-effort
	// graph still comes back for broken code.
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur

	then := b.newBlock("if.then")
	after := b.newBlock("if.after")
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	b.edge(b.cur, after)

	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, after)
	} else {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
	}

	body := b.newBlock("for.body")
	after := b.newBlock("for.after")
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}

	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		cont = post
	}

	b.frames = append(b.frames, frame{label: label, isLoop: true, brk: after, cont: cont})
	b.cur = body
	b.stmt(s.Body)
	b.frames = b.frames[:len(b.frames)-1]

	if post != nil {
		b.edge(b.cur, post)
		b.cur = post
		b.stmt(s.Post)
	}
	b.edge(b.cur, head)
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	b.edge(b.cur, head)
	b.cur = head
	// The whole RangeStmt is the head node: analyzers see the range
	// expression (and the per-iteration key/value assignment) there.
	b.add(s)

	body := b.newBlock("range.body")
	after := b.newBlock("range.after")
	b.edge(head, body)
	b.edge(head, after)

	b.frames = append(b.frames, frame{label: label, isLoop: true, brk: after, cont: head})
	b.cur = body
	b.stmt(s.Body)
	b.frames = b.frames[:len(b.frames)-1]

	b.edge(b.cur, head)
	b.cur = after
}

// switchStmt handles both expression and type switches (tag is the
// expression-switch tag, assign the type-switch guard; either may be nil).
func (b *builder) switchStmt(label string, init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	after := b.newBlock("switch.after")

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("case")
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}

	for i, cc := range clauses {
		var fallthru *Block
		if i+1 < len(blocks) {
			fallthru = blocks[i+1]
		}
		b.frames = append(b.frames, frame{label: label, brk: after, fallthru: fallthru})
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(b.cur, after)
	}
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	after := b.newBlock("select.after")

	any := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock("select.case")
		b.edge(head, blk)
		b.frames = append(b.frames, frame{label: label, brk: after})
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(b.cur, after)
	}
	if !any {
		// select {} blocks forever; nothing reaches after, which therefore
		// stays unreachable, matching the runtime.
		_ = head
	}
	b.cur = after
}

// isTerminalCall reports whether a call never returns: builtin panic,
// os.Exit, runtime.Goexit, log.Fatal*, and Fatal/Skip-class methods of the
// testing package (which stop the calling goroutine).
func (b *builder) isTerminalCall(call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	if b.info == nil {
		return id.Name == "panic"
	}
	switch obj := b.info.Uses[id].(type) {
	case *types.Builtin:
		return obj.Name() == "panic"
	case *types.Func:
		pkg := obj.Pkg()
		if pkg == nil {
			return false
		}
		name := obj.Name()
		switch pkg.Path() {
		case "os":
			return name == "Exit"
		case "runtime":
			return name == "Goexit"
		case "log":
			return strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic")
		case "testing":
			switch name {
			case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
				return true
			}
		}
	}
	return false
}
