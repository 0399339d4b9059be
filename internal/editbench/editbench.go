// Package editbench defines the committed edit-benchmark corpus — the
// single source of truth behind BENCH_edit.json and the CI edit gate
// (cmd/benchdiff -kind edit). Each case is a synthetic key/foreign-key
// document of a fixed element count plus a deterministic script of point
// edits, measured two ways:
//
//   - session: the edits applied through an open document session, which
//     re-checks only the touched scopes — the O(edit) path;
//   - restream: each edit naively applied to a shadow tree, then the
//     whole document serialized and re-validated through the streaming
//     checker — the O(document)-per-edit path a session replaces.
//
// The gap between the two series is exactly the revalidation work the
// retained constraint and kids indexes skip. The corpus is
// constructed, not loaded: the documents are large (up to 1e5 element
// nodes) and fully determined by the case parameters, so committing them
// would be pure bloat.
package editbench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xic"
	"xic/internal/xmltree"
)

// DTDSrc is the corpus schema: groups keyed by id, refs targeting them —
// one key and one foreign key over a three-level document.
const DTDSrc = `
<!ELEMENT lib (grp*, ref*)>
<!ELEMENT grp (item*)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ATTLIST grp id CDATA #REQUIRED tag CDATA #IMPLIED>
<!ATTLIST ref to CDATA #REQUIRED>
`

// ConsSrc is the corpus constraint set.
const ConsSrc = "grp.id -> grp\nref.to => grp.id"

// Case is one corpus entry: the document shape and the script length.
type Case struct {
	Name string
	// Groups, Items, Refs shape the document: Groups grp elements with
	// Items item children each, then Refs ref elements. The element count
	// is 1 + Groups*(1+Items) + Refs.
	Groups, Items, Refs int
	// Ops is the number of point edits in the script.
	Ops int
}

// Nodes returns the case's element count.
func (c Case) Nodes() int { return 1 + c.Groups*(1+c.Items) + c.Refs }

// DefaultCorpus is the committed benchmark matrix. The large case is the
// acceptance shape from the roadmap: point edits on a 1e5-element
// document.
func DefaultCorpus() []Case {
	return []Case{
		{Name: "edit-10k", Groups: 240, Items: 40, Refs: 160, Ops: 48},
		{Name: "edit-30k", Groups: 720, Items: 40, Refs: 480, Ops: 48},
		{Name: "edit-100k", Groups: 2400, Items: 40, Refs: 1599, Ops: 48},
	}
}

// Document builds the case's base document.
func (c Case) Document() string {
	var b strings.Builder
	b.Grow(c.Nodes() * 24)
	b.WriteString("<lib>")
	for g := 0; g < c.Groups; g++ {
		fmt.Fprintf(&b, `<grp id="g%d" tag="t%d">`, g, g%7)
		for i := 0; i < c.Items; i++ {
			fmt.Fprintf(&b, "<item>v%d-%d</item>", g, i)
		}
		b.WriteString("</grp>")
	}
	for r := 0; r < c.Refs; r++ {
		fmt.Fprintf(&b, `<ref to="g%d"/>`, r%c.Groups)
	}
	b.WriteString("</lib>")
	return b.String()
}

// Script derives the case's edit script: a rotation of the four point
// edits, each constructed to be accepted — retargeting a ref to an
// existing group, rewriting an item's text, renaming a group nothing
// references onto a fresh id, and inserting a fresh-keyed group before
// the ref block. Every op is O(1)-sized; the question the benchmark asks
// is what each one costs to re-check.
func (c Case) Script() []xic.EditOp {
	ops := make([]xic.EditOp, 0, c.Ops)
	inserted := 0
	for i := 0; len(ops) < c.Ops; i++ {
		switch i % 4 {
		case 0:
			// Retargets stay inside g0..g(Refs-1), the zone the renames
			// below never touch, so no op can strand another's reference.
			ops = append(ops, xic.SetAttr(
				fmt.Sprintf("lib/ref[%d]", i%c.Refs), "to", fmt.Sprintf("g%d", (i*7)%c.Refs)))
		case 1:
			ops = append(ops, xic.SetText(
				fmt.Sprintf("lib/grp[%d]/item[%d]", (i*5)%c.Groups, i%c.Items),
				fmt.Sprintf("w%d", i)))
		case 2:
			// Groups at index >= Refs are never ref targets (refs point at
			// g0..g(Refs-1), and Refs < Groups across the corpus), so the
			// rename cannot strand a reference.
			g := c.Refs + i%(c.Groups-c.Refs)
			ops = append(ops, xic.SetAttr(
				fmt.Sprintf("lib/grp[%d]", g), "id", fmt.Sprintf("fresh%d", i)))
		case 3:
			ops = append(ops, xic.InsertSubtree("lib", c.Groups+inserted,
				fmt.Sprintf(`<grp id="new%d" tag="t0"><item>x</item></grp>`, i)))
			inserted++
		}
	}
	return ops
}

// Result is one measured corpus case, the schema of BENCH_edit.json.
type Result struct {
	Case         string  `json:"case"`
	Nodes        int     `json:"nodes"`
	Ops          int     `json:"ops"`
	SessionMs    float64 `json:"session_ms"`
	RestreamMs   float64 `json:"restream_ms"`
	Speedup      float64 `json:"speedup"`
	SessionUsPer float64 `json:"session_us_per_op"`
}

// Run measures one case: the script through a session versus the same
// script through naive-apply-then-revalidate, best of three rounds each.
func Run(ctx context.Context, spec *xic.Spec, c Case) (Result, error) {
	doc := c.Document()
	ops := c.Script()

	// Session side: a fresh session per round (ingest untimed — it is the
	// once-per-document cost the edits amortise), the script timed.
	var sessionBest time.Duration
	for round := 0; round < 3; round++ {
		sess, err := spec.OpenSession(ctx, strings.NewReader(doc))
		if err != nil {
			return Result{}, fmt.Errorf("%s: open: %w", c.Name, err)
		}
		start := time.Now()
		for i := range ops {
			if res := sess.Apply(ops[i]); res.Rejected != nil {
				return Result{}, fmt.Errorf("%s: op %d rejected: %+v", c.Name, i, res.Rejected)
			}
		}
		if d := time.Since(start); sessionBest == 0 || d < sessionBest {
			sessionBest = d
		}
	}

	// Restream side: the same edits against a shadow tree, every one paying
	// a full serialize + streaming revalidation. Two rounds suffice — the
	// measured quantity is tens of full-document passes.
	var restreamBest time.Duration
	for round := 0; round < 2; round++ {
		tree, err := xmltree.ParseString(doc)
		if err != nil {
			return Result{}, fmt.Errorf("%s: parse: %w", c.Name, err)
		}
		start := time.Now()
		for i := range ops {
			if err := naiveApply(tree, ops[i]); err != nil {
				return Result{}, fmt.Errorf("%s: op %d: %w", c.Name, i, err)
			}
			rep, err := spec.ValidateStream(ctx, strings.NewReader(xmltree.Serialize(tree)))
			if err != nil {
				return Result{}, fmt.Errorf("%s: op %d: restream: %w", c.Name, i, err)
			}
			if !rep.OK() {
				return Result{}, fmt.Errorf("%s: op %d: restream found violations: %v", c.Name, i, rep.Violations)
			}
		}
		if d := time.Since(start); restreamBest == 0 || d < restreamBest {
			restreamBest = d
		}
	}

	res := Result{
		Case:         c.Name,
		Nodes:        c.Nodes(),
		Ops:          len(ops),
		SessionMs:    float64(sessionBest.Microseconds()) / 1000,
		RestreamMs:   float64(restreamBest.Microseconds()) / 1000,
		SessionUsPer: float64(sessionBest.Microseconds()) / float64(len(ops)),
	}
	if res.SessionMs > 0 {
		res.Speedup = res.RestreamMs / res.SessionMs
	}
	return res, nil
}

// naiveApply is the restream side's editor: the minimal tree surgery a
// client without a session would do, deliberately independent of the
// session engine's resolver and index machinery.
func naiveApply(t *xmltree.Tree, op xic.EditOp) error {
	n, parent, slot := naiveResolve(t, op.Path)
	if n == nil {
		return fmt.Errorf("path %q does not resolve", op.Path)
	}
	switch op.Kind {
	case xic.OpSetAttr:
		n.SetAttr(op.Attr, op.Value)
	case xic.OpSetText:
		if len(n.Children) == 1 && n.Children[0].IsText() {
			n.Children[0].Value = op.Value
		} else {
			n.Children = []*xmltree.Node{xmltree.NewText(op.Value)}
		}
	case xic.OpInsertSubtree:
		sub, err := xmltree.ParseString(op.XML)
		if err != nil {
			return err
		}
		if op.Index < 0 || op.Index > len(n.Children) {
			return fmt.Errorf("index %d out of range", op.Index)
		}
		kids := make([]*xmltree.Node, 0, len(n.Children)+1)
		kids = append(kids, n.Children[:op.Index]...)
		kids = append(kids, sub.Root)
		kids = append(kids, n.Children[op.Index:]...)
		n.Children = kids
	case xic.OpDeleteSubtree:
		if parent == nil {
			return fmt.Errorf("cannot delete the root")
		}
		parent.Children = append(parent.Children[:slot:slot], parent.Children[slot+1:]...)
	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
	return nil
}

// naiveResolve walks a Tree.Path-notation path by splitting on slashes —
// intentionally not the session's resolver.
func naiveResolve(t *xmltree.Tree, path string) (n, parent *xmltree.Node, slot int) {
	segs := strings.Split(path, "/")
	if len(segs) == 0 || segs[0] != t.Root.Label {
		return nil, nil, 0
	}
	n, parent, slot = t.Root, nil, -1
	for _, seg := range segs[1:] {
		open := strings.IndexByte(seg, '[')
		if open < 0 || !strings.HasSuffix(seg, "]") {
			return nil, nil, 0
		}
		label := seg[:open]
		var idx int
		if _, err := fmt.Sscanf(seg[open:], "[%d]", &idx); err != nil {
			return nil, nil, 0
		}
		seen, found := 0, false
		for i, ch := range n.Children {
			if ch.Label != label {
				continue
			}
			if seen == idx {
				parent, n, slot = n, ch, i
				found = true
				break
			}
			seen++
		}
		if !found {
			return nil, nil, 0
		}
	}
	return n, parent, slot
}
