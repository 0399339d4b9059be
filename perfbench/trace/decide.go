package main

import (
	"context"
	"fmt"
	"time"

	"xic"
	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/presolve"
	"xic/internal/witness"
	"xic/perfbench/gen"
)

// decideReplayed bounds the consistency requests the traced run replays:
// the first ones of the seeded pool, each twice (through xic and
// decomposed layer by layer).
const decideReplayed = 600

// compiled is one schema compiled in process, as xicd compiles it.
type compiled struct {
	d     *dtd.DTD
	spec  *xic.Spec
	sigma []constraint.Constraint
	enc   *cardinality.Encoding // the Ψ_D template, for the decomposed replay
}

// compileTimes gathers the per-schema setup spans.
type compileTimes struct {
	parse, simplify, encode, compile []time.Duration
}

// compile parses, simplifies and compiles one DTD and binds its
// constraints; encode additionally builds the cardinality template.
func compile(tr *tracer, ct *compileTimes, dtdSrc, sigmaSrc string, encode bool) (*compiled, error) {
	c := &compiled{}
	var err error
	ct.parse = append(ct.parse, tr.timed("dtd.parse", -1, func() { c.d, err = dtd.Parse(dtdSrc) }))
	if err != nil {
		return nil, err
	}
	var simp *dtd.Simplified
	ct.simplify = append(ct.simplify, tr.timed("dtd.simplify", -1, func() { simp = dtd.Simplify(c.d) }))
	if encode {
		ct.encode = append(ct.encode, tr.timed("cardinality.encode_dtd", -1, func() { c.enc, err = cardinality.EncodeDTD(simp) }))
		if err != nil {
			return nil, err
		}
	}
	var sch *xic.Schema
	ct.compile = append(ct.compile, tr.timed("xic.compile_dtd", -1, func() { sch, err = xic.CompileDTD(c.d) }))
	if err != nil {
		return nil, err
	}
	if c.sigma, err = constraint.Parse(sigmaSrc); err != nil {
		return nil, err
	}
	c.spec, err = sch.Bind(c.sigma...)
	return c, err
}

func (ct *compileTimes) report(out *output) {
	out.Metrics["dtd.parse_us"] = us(pct(ct.parse, 0.5))
	out.Metrics["dtd.simplify_us"] = us(pct(ct.simplify, 0.5))
	out.Metrics["xic.compile_dtd_ms"] = ms(pct(ct.compile, 0.5))
	if len(ct.encode) > 0 {
		out.Metrics["cardinality.encode_dtd_us"] = us(pct(ct.encode, 0.5))
	}
}

// solveCounts sums the counts the decomposed replay's calls return.
type solveCounts struct {
	solves, decided, fastPath, multiNode, nodes, nodesMax int
	pivots, fastPivots, fallbacks, cuts, rows, rowsOut    int
	systems, vars, sysRows, witnesses, witnessNodes       int
	pivotingSearch                                        time.Duration // search time of the solves that pivoted
}

func replayDecide(tr *tracer, seed uint64, out *output) error {
	ctx := context.Background()
	in := gen.NewDecide(seed)
	var ct compileTimes
	specs := make([]*compiled, len(in.Specs))
	skip := make([]*xic.Spec, len(in.Specs))
	for i, sp := range in.Specs {
		c, err := compile(tr, &ct, sp.Schema.DTD(), gen.Source(sp.Sigma), true)
		if err != nil {
			return fmt.Errorf("spec %s: %w", sp.Schema.Name, err)
		}
		specs[i], skip[i] = c, c.spec.WithSolveOptions(xic.WithSkipWitness())
		for _, q := range sp.Queries {
			phi, err := constraint.ParseOne(q.String())
			if err != nil {
				return err
			}
			var ierr error
			tr.timed("xic.implies_warm", -1, func() { _, ierr = c.spec.Implies(ctx, phi) })
			if ierr != nil {
				return ierr
			}
		}
	}
	ct.report(out)
	nodesBefore := 0
	for _, c := range specs {
		nodesBefore += int(c.spec.SolveStats().Nodes)
	}

	var parse, consistent, clone, add, pre, search, wit []time.Duration
	var covered, whole time.Duration
	var n solveCounts
	out.Verdicts = map[int]bool{}
	for idx, req := range in.Consistent {
		if idx == decideReplayed {
			break
		}
		out.Attempted++
		c := specs[req.Spec]
		reqSpan := tr.begin("decide.request", idx)
		var extras []constraint.Constraint
		var err error
		parse = append(parse, tr.timed("constraint.parse", idx, func() {
			for _, e := range req.Extra {
				var x constraint.Constraint
				if x, err = constraint.ParseOne(e.String()); err != nil {
					return
				}
				extras = append(extras, x)
			}
		}))
		if err != nil {
			return err
		}
		spec := c.spec
		if req.SkipWitness {
			spec = skip[req.Spec]
		}
		var res *xic.Result
		d := tr.timed("xic.consistent", idx, func() { res, err = spec.ConsistentWith(ctx, extras...) })
		consistent = append(consistent, d)
		whole += d
		if err != nil {
			tr.end(reqSpan)
			out.fail("consistency request %d: %v", idx, err)
			continue
		}

		// The decomposed replay: clone → add → presolve → solve → witness.
		replay := tr.begin("decide.replay", idx)
		set := append(append([]constraint.Constraint(nil), c.sigma...), extras...)
		keysOnly := constraint.ClassOf(set) == constraint.ClassK
		verdict := c.d.HasValidTree()
		if !keysOnly || !req.SkipWitness {
			var enc *cardinality.Encoding
			dc := tr.timed("cardinality.clone", idx, func() { enc = c.enc.Clone() })
			da := tr.timed("cardinality.add", idx, func() {
				if keysOnly {
					err = enc.AddUnary(nil)
				} else {
					_, err = enc.AddFull(set)
				}
			})
			if err != nil {
				return fmt.Errorf("request %d: encode: %w", idx, err)
			}
			var pr *presolve.Result
			dp := tr.timed("presolve.run", idx, func() { pr = presolve.Run(enc.Sys) })
			var sol *ilp.Result
			ds := tr.timed("ilp.solve", idx, func() { sol, err = ilp.Solve(ctx, enc.Sys, nil) })
			if err != nil {
				return fmt.Errorf("request %d: solve: %w", idx, err)
			}
			clone, add, pre = append(clone, dc), append(add, da), append(pre, dp)
			search = append(search, ds-dp)
			covered += dc + da + ds
			n.record(enc, pr, sol, ds-dp)
			if !keysOnly {
				verdict = sol.Feasible
			}
			if sol.Feasible && !req.SkipWitness {
				wset := set
				if keysOnly {
					wset = nil
				}
				dw := tr.timed("witness.build", idx, func() {
					var t *xic.Tree
					if t, err = witness.Build(ctx, enc, wset, sol.Values, nil); err == nil {
						n.witnesses++
						n.witnessNodes += t.Size()
					}
				})
				if err != nil {
					return fmt.Errorf("request %d: witness: %w", idx, err)
				}
				wit = append(wit, dw)
				covered += dw
			}
		}
		tr.end(replay)
		tr.end(reqSpan)
		if verdict != res.Consistent {
			out.fail("consistency request %d: xic says %v, decomposed replay %v", idx, res.Consistent, verdict)
		}
		if req.Want != nil && verdict != *req.Want {
			out.fail("consistency request %d: known answer %v, replay %v", idx, *req.Want, verdict)
		}
		out.Verdicts[idx] = verdict
	}
	nodesAfter := 0
	for _, c := range specs {
		nodesAfter += int(c.spec.SolveStats().Nodes)
	}
	if nodesAfter-nodesBefore != n.nodes {
		out.fail("Spec.SolveStats counted %d nodes, the decomposed replay %d", nodesAfter-nodesBefore, n.nodes)
	}

	var hits []time.Duration
	for i, sp := range in.Specs {
		for _, q := range sp.Queries {
			phi, _ := constraint.ParseOne(q.String()) // parsed in setup already
			var err error
			hits = append(hits, tr.timed("xic.implies", -1, func() { _, err = specs[i].spec.Implies(ctx, phi) }))
			if err != nil {
				return err
			}
		}
	}

	m := out.Metrics
	m["xic.consistent_ms"] = ms(pct(consistent, 0.5))
	m["xic.consistent_ms_p99"] = ms(pct(consistent, 0.99))
	m["xic.implies_hit_us"] = us(pct(hits, 0.5))
	m["constraint.parse_us"] = us(pct(parse, 0.5))
	m["cardinality.clone_us"] = us(pct(clone, 0.5))
	m["cardinality.add_us"] = us(pct(add, 0.5))
	m["cardinality.vars"] = frac(n.vars, n.systems)
	m["cardinality.rows"] = frac(n.sysRows, n.systems)
	m["presolve.ms"] = ms(pct(pre, 0.5))
	m["presolve.ms_p99"] = ms(pct(pre, 0.99))
	m["presolve.decided_frac"] = frac(n.decided, n.solves)
	m["presolve.rows_out_frac"] = frac(n.rowsOut, n.rows)
	m["presolve.cuts_per_solve"] = frac(n.cuts, n.solves)
	m["ilp.search_ms"] = ms(pct(search, 0.5))
	m["ilp.search_ms_p99"] = ms(pct(search, 0.99))
	m["ilp.nodes_mean"] = frac(n.nodes, n.solves)
	m["ilp.nodes_max"] = float64(n.nodesMax)
	m["ilp.multi_node_frac"] = frac(n.multiNode, n.solves)
	m["ilp.fastpath_frac"] = frac(n.fastPath, n.solves)
	m["simplex.pivots_per_solve"] = frac(n.pivots, n.solves)
	if n.pivots > 0 {
		m["ilp.search_us_per_pivot"] = us(n.pivotingSearch) / float64(n.pivots)
	}
	m["simplex.fast_pivot_frac"] = frac(n.fastPivots, n.pivots)
	m["simplex.fallbacks"] = float64(n.fallbacks)
	m["witness.us"] = us(pct(wit, 0.5))
	m["witness.nodes"] = frac(n.witnessNodes, n.witnesses)
	m["trace.decide_coverage"] = float64(covered) / float64(whole)
	return nil
}

// record folds one decomposed solve into the counts.
func (n *solveCounts) record(enc *cardinality.Encoding, pr *presolve.Result, sol *ilp.Result, search time.Duration) {
	n.systems++
	n.vars += enc.Sys.VarCount()
	n.sysRows += len(enc.Sys.Constraints())
	n.solves++
	if pr.Decided {
		n.decided++
	}
	n.rows += pr.Stats.Rows
	n.rowsOut += pr.Stats.RowsOut
	n.cuts += pr.Stats.Cuts
	if sol.Stats.FastPath {
		n.fastPath++
	}
	if sol.Nodes > 1 {
		n.multiNode++
	}
	n.nodes += sol.Nodes
	n.nodesMax = max(n.nodesMax, sol.Nodes)
	n.pivots += sol.Stats.Pivots
	n.fastPivots += sol.Stats.FastPivots
	n.fallbacks += sol.Stats.ExactFallbacks
	if sol.Stats.Pivots > 0 {
		n.pivotingSearch += search
	}
}
