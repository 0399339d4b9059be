// Package witness turns integer solutions of the cardinality encodings into
// concrete XML documents: the constructive halves of Lemmas 4.4, 4.5, 5.2
// and 4.3. Given a solution of Ψ(D,Σ) it
//
//  1. creates |ext(τ)| nodes per type of the simplified DTD and marks each
//     non-root node with one occurrence variable x^i_{τ,τ'} according to
//     the solution (Lemma 4.5);
//  2. wires children to parents following the simple rules, then — for
//     recursive DTDs — re-roots any parent/child components disconnected
//     from the root by swapping same-marked children, guided by the
//     spanning-depth certificate (see package cardinality: this step
//     completes the construction that Lemma 4.5 leaves implicit);
//  3. collapses the fresh element types introduced by simplification
//     (Lemma 4.3), yielding a tree valid w.r.t. the original DTD;
//  4. assigns attribute values realising exactly the solution's
//     |ext(τ.l)| cardinalities: nested prefix pools for attributes only
//     constrained by keys and positive inclusions (Lemma 4.4), and
//     intersection-cell pools for attributes under negated inclusion
//     constraints (Lemma 5.2).
//
// Build does not check the result: its callers in package core run the
// document checker over every tree they return.
package witness

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/xmltree"
)

// Limits bounds resource use during construction.
type Limits struct {
	// MaxNodes caps the total node count of the witness tree. Zero means
	// DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes is the node cap used when Limits.MaxNodes is 0.
const DefaultMaxNodes = 200000

func (l *Limits) maxNodes() int {
	if l == nil || l.MaxNodes == 0 {
		return DefaultMaxNodes
	}
	return l.MaxNodes
}

// Build constructs a witness document from a solution of the encoding.
// set is the constraint set that was added to the encoding; Build reads
// the encoding alone, and the caller checks the finished tree against
// set. The context is checked between construction stages and inside the
// node-allocation loop, so cancelling it aborts even very large witnesses
// promptly; a nil context never cancels.
func Build(ctx context.Context, enc *cardinality.Encoding, set []constraint.Constraint, values []*big.Int, lim *Limits) (*xmltree.Tree, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &builder{ctx: ctx, enc: enc, values: values, lim: lim}
	return b.run()
}

type builder struct {
	ctx    context.Context
	enc    *cardinality.Encoding
	values []*big.Int
	lim    *Limits
}

// checkCtx returns the cancellation error of the builder's context, if any.
func (b *builder) checkCtx() error {
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("witness: construction aborted: %w", err)
	}
	return nil
}

// intValue reads a solution variable as an int, failing on absurd sizes.
func (b *builder) intValue(name string) (int, error) {
	id, ok := b.enc.Sys.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("witness: solution has no variable %s", name)
	}
	v := b.values[id]
	if v == nil {
		return 0, nil
	}
	if !v.IsInt64() || v.Int64() > int64(b.lim.maxNodes()) {
		return 0, fmt.Errorf("witness: %s = %s exceeds the node budget %d", name, v, b.lim.maxNodes())
	}
	return int(v.Int64()), nil
}

// mark identifies the occurrence slot a node was allocated to.
type mark struct {
	i      int
	parent string
}

// typedNode pairs a tree node with its allocation bookkeeping.
type typedNode struct {
	node *xmltree.Node
	mk   mark
	par  *xmltree.Node // set during wiring
	slot int           // index within parent's children
}

func (b *builder) run() (*xmltree.Tree, error) {
	simp := b.enc.Simp
	d := simp.DTD

	// 1. Create nodes per type and distribute marks.
	nodes := map[string][]*typedNode{} // by type (and TextSymbol)
	total := 0
	mkNodes := func(typ string) error {
		ext, err := b.intValue(cardinality.ExtVarName(typ))
		if err != nil {
			return err
		}
		total += ext
		if total > b.lim.maxNodes() {
			return fmt.Errorf("witness: tree would exceed %d nodes", b.lim.maxNodes())
		}
		for k := 0; k < ext; k++ {
			if k%4096 == 0 {
				if err := b.checkCtx(); err != nil {
					return err
				}
			}
			var n *xmltree.Node
			if typ == dtd.TextSymbol {
				n = xmltree.NewText("txt")
			} else {
				n = xmltree.NewElement(typ)
			}
			nodes[typ] = append(nodes[typ], &typedNode{node: n})
		}
		return nil
	}
	for _, t := range d.Types() {
		if err := mkNodes(t); err != nil {
			return nil, err
		}
	}
	if err := mkNodes(dtd.TextSymbol); err != nil {
		return nil, err
	}
	if len(nodes[d.Root]) != 1 {
		return nil, fmt.Errorf("witness: solution has |ext(%s)| = %d, want 1", d.Root, len(nodes[d.Root]))
	}
	root := nodes[d.Root][0]

	// Distribute marks: per child symbol, assign occurrence variables to
	// node ranges in order.
	pools := map[string]map[mark][]*typedNode{} // child type → mark → unused nodes
	offsets := map[string]int{}
	for _, occ := range b.enc.Occurrences() {
		cnt, err := b.intValue(cardinality.OccVarName(occ.I, occ.Child, occ.Parent))
		if err != nil {
			return nil, err
		}
		if cnt == 0 {
			continue
		}
		off := offsets[occ.Child]
		avail := nodes[occ.Child]
		if off+cnt > len(avail) {
			return nil, fmt.Errorf("witness: occurrence counts of %s exceed |ext| (%d+%d > %d)",
				occ.Child, off, cnt, len(avail))
		}
		mk := mark{i: occ.I, parent: occ.Parent}
		if pools[occ.Child] == nil {
			pools[occ.Child] = map[mark][]*typedNode{}
		}
		for _, tn := range avail[off : off+cnt] {
			tn.mk = mk
		}
		pools[occ.Child][mk] = append(pools[occ.Child][mk], avail[off:off+cnt]...)
		offsets[occ.Child] = off + cnt
	}
	for typ, ns := range nodes {
		if typ == d.Root {
			continue
		}
		if offsets[typ] != len(ns) {
			return nil, fmt.Errorf("witness: %d %s-nodes but %d occurrence slots", len(ns), typ, offsets[typ])
		}
	}

	// 2. Wire children following the simple rules.
	if err := b.checkCtx(); err != nil {
		return nil, err
	}
	take := func(child string, i int, parent string) (*typedNode, error) {
		mk := mark{i: i, parent: parent}
		pool := pools[child][mk]
		if len(pool) == 0 {
			return nil, fmt.Errorf("witness: pool x%d(%s,%s) exhausted", i, child, parent)
		}
		tn := pool[len(pool)-1]
		pools[child][mk] = pool[:len(pool)-1]
		return tn, nil
	}
	attach := func(parent *typedNode, children ...*typedNode) {
		for _, c := range children {
			c.par = parent.node
			c.slot = len(parent.node.Children)
			parent.node.Children = append(parent.node.Children, c.node)
		}
	}
	for _, t := range d.Types() {
		form, err := dtd.ClassifySimple(d.Element(t).Content)
		if err != nil {
			return nil, fmt.Errorf("witness: %v", err)
		}
		parents := nodes[t]
		switch form.Kind {
		case dtd.KindEmpty:
			// no children
		case dtd.KindText:
			for _, p := range parents {
				c, err := take(dtd.TextSymbol, 1, t)
				if err != nil {
					return nil, err
				}
				attach(p, c)
			}
		case dtd.KindSingle:
			for _, p := range parents {
				c, err := take(form.One, 1, t)
				if err != nil {
					return nil, err
				}
				attach(p, c)
			}
		case dtd.KindSeq:
			for _, p := range parents {
				c1, err := take(form.Left, 1, t)
				if err != nil {
					return nil, err
				}
				c2, err := take(form.Right, 2, t)
				if err != nil {
					return nil, err
				}
				attach(p, c1, c2)
			}
		case dtd.KindAlt:
			// The first x1 parents take the left branch, the rest right.
			x1, err := b.intValue(cardinality.OccVarName(1, form.Left, t))
			if err != nil {
				return nil, err
			}
			for k, p := range parents {
				var c *typedNode
				if k < x1 {
					c, err = take(form.Left, 1, t)
				} else {
					c, err = take(form.Right, 2, t)
				}
				if err != nil {
					return nil, err
				}
				attach(p, c)
			}
		}
	}

	// 3. Re-root phantom components (recursive DTDs only).
	if err := b.checkCtx(); err != nil {
		return nil, err
	}
	if err := b.repair(nodes, root); err != nil {
		return nil, err
	}

	// 4. Collapse fresh types (Lemma 4.3).
	collapsed := collapse(root.node, simp)
	tree := xmltree.NewTree(collapsed)

	// 5. Assign attribute values.
	if err := b.checkCtx(); err != nil {
		return nil, err
	}
	if err := b.assignValues(tree); err != nil {
		return nil, err
	}
	return tree, nil
}

// collapse removes fresh element types by splicing their children into
// their parents, preserving order (Lemma 4.3).
func collapse(n *xmltree.Node, simp *dtd.Simplified) *xmltree.Node {
	if n.IsText() {
		return n
	}
	out := xmltree.NewElement(n.Label)
	for _, a := range n.Attrs() {
		out.SetAttr(a.Name, a.Value)
	}
	var splice func(children []*xmltree.Node)
	splice = func(children []*xmltree.Node) {
		for _, c := range children {
			if !c.IsText() && simp.IsFresh(c.Label) {
				splice(c.Children)
				continue
			}
			out.Children = append(out.Children, collapse(c, simp))
		}
	}
	splice(n.Children)
	return out
}

// sortedAttrRefs returns the original DTD's attributes in deterministic
// order.
func sortedAttrRefs(d *dtd.DTD) []cardinality.AttrRef {
	var out []cardinality.AttrRef
	for _, t := range d.Types() {
		for _, l := range d.Element(t).Attrs {
			out = append(out, cardinality.AttrRef{Type: t, Attr: l})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
