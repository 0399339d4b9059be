package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses a function body (the src is wrapped in a func) and builds
// its graph without type information.
func build(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return New(fd.Body, nil)
}

// reachable returns the set of blocks reachable from Entry.
func reachable(g *Graph) map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// checkInvariants asserts structural well-formedness: Entry first, Exit
// last, Preds match Succs, and Exit has no successors.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	if g.Blocks[0] != g.Entry || g.Blocks[len(g.Blocks)-1] != g.Exit {
		t.Fatalf("Entry/Exit not first/last in Blocks")
	}
	if len(g.Exit.Succs) != 0 {
		t.Fatalf("Exit has successors: %v", g.Exit.Succs)
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %v->%v missing from Preds", b, s)
			}
		}
	}
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x := 1\n_ = x")
	checkInvariants(t, g)
	if len(g.Entry.Nodes) != 2 {
		t.Fatalf("entry nodes = %d, want 2", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry should flow straight to exit, got %v", g.Entry.Succs)
	}
}

func TestIfElseJoins(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\n\tx = 2\n} else {\n\tx = 3\n}\n_ = x")
	checkInvariants(t, g)
	// Condition block must have two successors (then, else) and the join
	// block both as predecessors.
	if n := len(g.Entry.Succs); n != 2 {
		t.Fatalf("cond successors = %d, want 2", n)
	}
	r := reachable(g)
	if !r[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestReturnEdgesToExit(t *testing.T) {
	g := build(t, "if cond() {\n\treturn\n}\nwork()")
	checkInvariants(t, g)
	var returns int
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
				if len(b.Succs) != 1 || b.Succs[0] != g.Exit {
					t.Fatalf("return block %v should edge only to exit, got %v", b, b.Succs)
				}
			}
		}
	}
	if returns != 1 {
		t.Fatalf("found %d return blocks, want 1", returns)
	}
}

func TestPanicTerminates(t *testing.T) {
	g := build(t, "panic(\"boom\")\nunreached()")
	checkInvariants(t, g)
	// The statement after panic sits in a block with no predecessors.
	r := reachable(g)
	var unreached bool
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "unreached" {
						unreached = true
						if r[b] {
							t.Fatal("code after panic should be unreachable")
						}
					}
				}
			}
		}
	}
	if !unreached {
		t.Fatal("did not find the post-panic statement")
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := build(t, "for i := 0; i < 10; i++ {\n\twork()\n}\ndone()")
	checkInvariants(t, g)
	// Find the head (has the condition and two successors); body chain
	// must eventually edge back to it.
	var head *Block
	for _, b := range g.Blocks {
		if b.Kind == "for.head" {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no for.head block")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("head successors = %d, want 2 (body, after)", len(head.Succs))
	}
	backEdge := false
	for _, p := range head.Preds {
		if p.Kind == "for.post" {
			backEdge = true
		}
	}
	if !backEdge {
		t.Fatal("no back edge from post block to head")
	}
}

func TestInfiniteLoopSkipsAfter(t *testing.T) {
	g := build(t, "for {\n\twork()\n}\nunreached()")
	checkInvariants(t, g)
	r := reachable(g)
	if r[g.Exit] {
		t.Fatal("exit should be unreachable past an infinite loop with no break")
	}
}

func TestBreakReachesAfter(t *testing.T) {
	g := build(t, "for {\n\tif cond() {\n\t\tbreak\n\t}\n}\nafter()")
	checkInvariants(t, g)
	if !reachable(g)[g.Exit] {
		t.Fatal("break should make exit reachable")
	}
}

func TestLabeledContinue(t *testing.T) {
	g := build(t, "outer:\nfor i := 0; i < 3; i++ {\n\tfor {\n\t\tcontinue outer\n\t}\n}\ndone()")
	checkInvariants(t, g)
	if !reachable(g)[g.Exit] {
		t.Fatal("labeled continue should keep the outer loop terminating")
	}
	// The inner loop's head must not be its own only predecessor: the
	// continue jumps to the outer post block.
	var post *Block
	for _, b := range g.Blocks {
		if b.Kind == "for.post" {
			post = b
		}
	}
	if post == nil || len(post.Preds) == 0 {
		t.Fatal("outer post block should be the continue target")
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := build(t, "switch x() {\ncase 1:\n\ta()\n\tfallthrough\ncase 2:\n\tb()\ndefault:\n\tc()\n}")
	checkInvariants(t, g)
	// Three case blocks; case 1 must edge to case 2.
	var cases []*Block
	for _, b := range g.Blocks {
		if b.Kind == "case" {
			cases = append(cases, b)
		}
	}
	if len(cases) != 3 {
		t.Fatalf("case blocks = %d, want 3", len(cases))
	}
	found := false
	for _, s := range cases[0].Succs {
		if s == cases[1] {
			found = true
		}
	}
	if !found {
		t.Fatal("fallthrough edge from case 1 to case 2 missing")
	}
}

func TestSwitchNoDefaultSkips(t *testing.T) {
	g := build(t, "switch x() {\ncase 1:\n\ta()\n}\nafter()")
	checkInvariants(t, g)
	// Without a default the head edges directly to the after block.
	var after *Block
	for _, b := range g.Blocks {
		if b.Kind == "switch.after" {
			after = b
		}
	}
	if after == nil {
		t.Fatal("no switch.after block")
	}
	if len(after.Preds) != 2 {
		t.Fatalf("switch.after preds = %d, want 2 (head skip + case)", len(after.Preds))
	}
}

func TestSelectCases(t *testing.T) {
	g := build(t, "select {\ncase <-a:\n\tx()\ncase b <- 1:\n\ty()\n}")
	checkInvariants(t, g)
	var n int
	for _, b := range g.Blocks {
		if b.Kind == "select.case" {
			n++
			if len(b.Nodes) == 0 {
				t.Fatalf("select case block %v has no nodes (comm statement missing)", b)
			}
		}
	}
	if n != 2 {
		t.Fatalf("select case blocks = %d, want 2", n)
	}
}

func TestGotoForward(t *testing.T) {
	g := build(t, "if cond() {\n\tgoto done\n}\nwork()\ndone:\nfini()")
	checkInvariants(t, g)
	var label *Block
	for _, b := range g.Blocks {
		if strings.HasPrefix(b.Kind, "label.") {
			label = b
		}
	}
	if label == nil {
		t.Fatal("no label block")
	}
	if len(label.Preds) != 2 {
		t.Fatalf("label preds = %d, want 2 (goto + fallthrough)", len(label.Preds))
	}
}

func TestRangeLoop(t *testing.T) {
	g := build(t, "for _, v := range xs {\n\tuse(v)\n}\ndone()")
	checkInvariants(t, g)
	var head *Block
	for _, b := range g.Blocks {
		if b.Kind == "range.head" {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no range.head")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("range head successors = %d, want 2", len(head.Succs))
	}
	if len(head.Nodes) != 1 {
		t.Fatalf("range head should carry the RangeStmt node, got %d nodes", len(head.Nodes))
	}
}

func TestDeferIsOrdinaryNode(t *testing.T) {
	g := build(t, "mu.Lock()\ndefer mu.Unlock()\nwork()")
	checkInvariants(t, g)
	var sawDefer bool
	for _, n := range g.Entry.Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			sawDefer = true
		}
	}
	if !sawDefer {
		t.Fatal("DeferStmt should appear as an ordinary node in its block")
	}
	if fmt.Sprintf("%v", g.Entry) == "" {
		t.Fatal("block String is empty")
	}
}
