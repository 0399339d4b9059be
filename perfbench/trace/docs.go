package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"xic"
	"xic/internal/constraint"
	"xic/internal/doccheck"
	"xic/internal/dtd"
	"xic/internal/xmltree"
	"xic/perfbench/gen"
)

// docSpec is a compiled document schema plus the pieces the document-side
// replays drive directly.
type docSpec struct {
	*compiled
	validator *xmltree.Validator
	checker   *doccheck.Checker
}

func compileDocSpec(tr *tracer, ct *compileTimes, sp gen.DocSpec) (*docSpec, error) {
	c, err := compile(tr, ct, sp.Schema.DTD(), gen.Source(sp.Sigma), false)
	if err != nil {
		return nil, err
	}
	v := xmltree.NewValidator(c.d)
	v.CompileAll()
	return &docSpec{compiled: c, validator: v, checker: doccheck.New(c.d, v, c.sigma)}, nil
}

// docTimes gathers the document-side measurements over many documents.
type docTimes struct {
	mb                           float64
	retain, parse, steps         time.Duration
	keyAdd, inclAdd              time.Duration
	nsteps, nkeys, nincl         int
	openRest                     []time.Duration
	validate                     []time.Duration
	validateTotal, validateSteps time.Duration // over validated documents only
	validateMB                   float64
}

// analyze times the layers under one document's ingestion: the retain
// pass, the tree parse, and replays of the content-model steps and the
// constraint-index inserts over the document's own label sequences and
// tuples. It returns the time of the two replays.
func (dt *docTimes) analyze(tr *tracer, ds *docSpec, doc []byte, req int) (time.Duration, error) {
	ctx := context.Background()
	var err error
	dRetain := tr.timed("doccheck.retain", req, func() { _, _, err = ds.checker.RunRetain(ctx, bytes.NewReader(doc)) })
	if err != nil {
		return 0, err
	}
	var tree *xmltree.Tree
	dParse := tr.timed("xmltree.parse", req, func() { tree, err = xmltree.Parse(bytes.NewReader(doc)) })
	if err != nil {
		return 0, err
	}
	dt.mb += float64(len(doc)) / 1e6
	dt.retain += dRetain
	dt.parse += dParse

	// Child-label sequences, one per element, stepped through that
	// element type's automaton.
	type word struct {
		run    *dtd.Run
		labels []string
	}
	runs := map[string]*dtd.Run{}
	var words []word
	steps := 0
	tree.Walk(func(n *xmltree.Node) bool {
		if n.IsText() {
			return true
		}
		r, ok := runs[n.Label]
		if !ok {
			a := ds.validator.Automaton(n.Label)
			if a == nil {
				return true // undeclared: no content model to step
			}
			r = a.Start()
			runs[n.Label] = r
		}
		w := word{run: r}
		for _, ch := range n.Children {
			w.labels = append(w.labels, ch.Label)
		}
		steps += len(w.labels)
		words = append(words, w)
		return true
	})
	dSteps := tr.timed("dtd.steps", req, func() {
		for _, w := range words {
			w.run.Reset()
			for _, l := range w.labels {
				w.run.Step(l)
			}
			w.run.Accepting()
		}
	})
	dt.steps += dSteps
	dt.nsteps += steps

	// Constraint-index inserts over the document's tuples.
	var keyTime, inclTime time.Duration
	for _, con := range ds.sigma {
		switch x := con.(type) {
		case constraint.Key:
			vals := attrValues(tree, x.Type, x.Attrs[0])
			keyTime += insertKeys(tr, req, x.Type, x.Attrs, vals)
			dt.nkeys += len(vals)
		case constraint.ForeignKey:
			k := x.Key()
			vals := attrValues(tree, k.Type, k.Attrs[0])
			keyTime += insertKeys(tr, req, k.Type, k.Attrs, vals)
			dt.nkeys += len(vals)
			inclTime += insertInclusion(tr, req, x.Inclusion, tree, &dt.nincl)
		case constraint.Inclusion:
			inclTime += insertInclusion(tr, req, x, tree, &dt.nincl)
		}
	}
	dt.keyAdd += keyTime
	dt.inclAdd += inclTime
	return dSteps + keyTime + inclTime, nil
}

func attrValues(t *xmltree.Tree, typ, attr string) []string {
	var out []string
	for _, n := range t.Ext(typ) {
		if v, ok := n.Attr(attr); ok {
			out = append(out, v)
		}
	}
	return out
}

func insertKeys(tr *tracer, req int, typ string, attrs, vals []string) time.Duration {
	return tr.timed("doccheck.key_add", req, func() {
		idx := doccheck.NewKeyIndex(typ, attrs)
		for _, v := range vals {
			idx.Add(v, doccheck.SrcPos{})
		}
	})
}

func insertInclusion(tr *tracer, req int, inc constraint.Inclusion, t *xmltree.Tree, n *int) time.Duration {
	child := attrValues(t, inc.Child, inc.ChildAttrs[0])
	parent := attrValues(t, inc.Parent, inc.ParentAttrs[0])
	*n += len(child) + len(parent)
	return tr.timed("doccheck.incl_add", req, func() {
		idx := doccheck.NewInclusionIndex(inc)
		for _, v := range child {
			idx.AddChild(v, doccheck.SrcPos{})
		}
		for _, v := range parent {
			idx.AddParent(v)
		}
	})
}

func (dt *docTimes) report(out *output) {
	m := out.Metrics
	m["xmltree.parse_mb_s"] = dt.mb / dt.parse.Seconds()
	m["doccheck.retain_mb_s"] = dt.mb / dt.retain.Seconds()
	m["dtd.steps_per_mb"] = float64(dt.nsteps) / dt.mb
	m["dtd.step_ns"] = float64(dt.steps) / float64(dt.nsteps)
	m["doccheck.tuples_per_mb"] = float64(dt.nkeys+dt.nincl) / dt.mb
	m["doccheck.key_add_ns"] = float64(dt.keyAdd) / float64(dt.nkeys)
	m["doccheck.incl_add_ns"] = float64(dt.inclAdd) / float64(dt.nincl)
	m["docsession.open_rest_ms"] = ms(pct(dt.openRest, 0.5))
	if len(dt.validate) > 0 {
		m["xic.validate_ms"] = ms(pct(dt.validate, 0.5))
		m["xic.validate_mb_s"] = dt.validateMB / dt.validateTotal.Seconds()
		m["doccheck.rest_ms_per_mb"] = ms(dt.validateTotal-dt.validateSteps) / dt.validateMB
	}
}

// openSession opens a session on doc through xic, as xicd does.
func openSession(tr *tracer, ds *docSpec, doc []byte, req int) (sess *xic.Session, d time.Duration, err error) {
	d = tr.timed("xic.open", req, func() { sess, err = ds.spec.OpenSession(context.Background(), bytes.NewReader(doc)) })
	return sess, d, err
}

func replayIngest(tr *tracer, seed uint64, out *output) error {
	ctx := context.Background()
	in := gen.NewIngest(seed)
	var ct compileTimes
	specs := make([]*docSpec, len(in.Specs))
	for i, sp := range in.Specs {
		ds, err := compileDocSpec(tr, &ct, sp)
		if err != nil {
			return fmt.Errorf("spec %s: %w", sp.Schema.Name, err)
		}
		specs[i] = ds
	}
	ct.report(out)

	var dt docTimes
	var opens []time.Duration
	for i, doc := range in.Docs {
		out.Attempted++
		ds := specs[doc.Spec]
		var rep *xic.Report
		var err error
		dv := tr.timed("xic.validate", i, func() { rep, err = ds.spec.ValidateStream(ctx, bytes.NewReader(doc.XML)) })
		if err != nil {
			out.fail("validate doc %d: %v", i, err)
			continue
		}
		if rep.OK() != (doc.Violations == 0) || len(rep.Violations) != doc.Violations || rep.Elements != doc.Elements {
			out.fail("validate doc %d (%s): %d violations, %d elements; generator recorded %d, %d",
				i, doc.Corruption, len(rep.Violations), rep.Elements, doc.Violations, doc.Elements)
		}
		before := dt.retain + dt.parse
		replayed, err := dt.analyze(tr, ds, doc.XML, i)
		if err != nil {
			return fmt.Errorf("doc %d: %w", i, err)
		}
		dt.validate = append(dt.validate, dv)
		dt.validateTotal += dv
		dt.validateSteps += replayed
		dt.validateMB += float64(len(doc.XML)) / 1e6

		out.Attempted++
		_, d, err := openSession(tr, ds, doc.XML, i)
		opens = append(opens, d)
		var ide *xic.InvalidDocumentError
		switch {
		case doc.Violations == 0 && err != nil:
			out.fail("open doc %d: %v", i, err)
		case doc.Violations > 0 && (!errors.As(err, &ide) || len(ide.Report.Violations) != doc.Violations):
			out.fail("open invalid doc %d (%s): %v", i, doc.Corruption, err)
		case doc.Violations == 0:
			dt.openRest = append(dt.openRest, d-(dt.retain+dt.parse-before))
		}
	}
	dt.report(out)
	out.Metrics["xic.open_ms"] = ms(pct(opens, 0.5))
	return nil
}

func replayEdit(tr *tracer, seed uint64, out *output) error {
	ctx := context.Background()
	in := gen.NewEdit(seed, 2)
	var ct compileTimes
	ds, err := compileDocSpec(tr, &ct, in.Spec)
	if err != nil {
		return err
	}
	ct.report(out)

	// Setup: open each client's document; the retain pass and the tree
	// parse run here and nowhere else on this workload.
	var dt docTimes
	var opens []time.Duration
	sessions := make([]*xic.Session, len(in.Docs))
	for c, doc := range in.Docs {
		before := dt.retain + dt.parse
		if _, err := dt.analyze(tr, ds, doc.XML, -1); err != nil {
			return err
		}
		sess, d, err := openSession(tr, ds, doc.XML, -1)
		if err != nil {
			return fmt.Errorf("open edit document %d: %w", c, err)
		}
		sessions[c] = sess
		opens = append(opens, d)
		dt.openRest = append(dt.openRest, d-(dt.retain+dt.parse-before))
	}
	dt.report(out)
	out.Metrics["xic.open_ms"] = ms(pct(opens, 0.5))

	byClass := map[string][]time.Duration{}
	var all, near, far []time.Duration
	req := 0
	for c, sess := range sessions {
		script := in.Scripts[c]
		for k := range script {
			st := &script[k]
			op := xic.EditOp{Kind: xic.OpKind(st.Op.Kind), Path: st.Op.Path, Index: st.Op.Index, XML: st.Op.XML, Attr: st.Op.Attr, Value: st.Op.Value}
			var res xic.ApplyResult
			d := tr.timed("xic.apply", req, func() { res = sess.Apply(op) })
			req++
			out.Attempted++
			want := 0
			if st.Applied {
				want = 1
			}
			if res.Applied != want || res.Elements != st.Elements ||
				(!st.Applied && (res.Rejected == nil || res.Rejected.Repair == nil || res.Rejected.Repair.Op == nil)) {
				out.fail("%s %s: applied %d, %d elements; shadow model says %d, %d", st.Class, st.Op.Path, res.Applied, res.Elements, want, st.Elements)
				continue
			}
			all = append(all, d)
			byClass[st.Class] = append(byClass[st.Class], d)
			if st.Class == gen.ClassSetAttr {
				edge := st.Siblings / 20
				switch {
				case st.Pos < edge:
					near = append(near, d)
				case st.Pos >= st.Siblings-edge:
					far = append(far, d)
				}
			}
		}
		rep, err := ds.spec.ValidateStream(ctx, bytes.NewReader([]byte(sess.Document())))
		if err != nil || !rep.OK() || rep.Elements != in.Docs[c].Elements {
			out.fail("session %d: final document does not validate (%v)", c, err)
		}
	}
	m := out.Metrics
	m["xic.apply_us"] = us(pct(all, 0.5))
	m["docsession.setattr_near_us"] = us(pct(near, 0.5))
	m["docsession.setattr_far_us"] = us(pct(far, 0.5))
	m["docsession.settext_us"] = us(pct(byClass[gen.ClassSetText], 0.5))
	m["docsession.insert_us"] = us(pct(byClass[gen.ClassInsert], 0.5))
	m["docsession.delete_us"] = us(pct(byClass[gen.ClassDelete], 0.5))
	m["docsession.reject_us"] = us(pct(byClass[gen.ClassReject], 0.5))
	return nil
}
