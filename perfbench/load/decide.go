package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"xic/perfbench/gen"
)

// workload is one traffic mix: how xicd is set up for it, one client's
// closed loop, the checks after the timed phase, and the metrics.
type workload interface {
	setup(s *server) error
	loop(c int, cl *client, deadline time.Time, rec *recorder)
	finish(cl *client, rec *recorder)
	shape() shape
	// compareTrace checks the traced run's answers against the ones xicd
	// gave, returning the number of disagreements.
	compareTrace(tr *traceResult) int
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "decide":
		return newDecide(seed), nil
	case "ingest":
		return newIngest(seed), nil
	case "edit":
		return newEdit(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want decide, ingest or edit)", name)
}

// compileSpec registers a DTD plus constraint set and returns its id.
func compileSpec(c *client, dtd, constraints string) (string, error) {
	body, _ := json.Marshal(map[string]string{"dtd": dtd, "constraints": constraints}) // plain strings always marshal
	status, resp, _, err := c.do("compile", "POST", "/v1/specs", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return "", fmt.Errorf("compile: status %d: %s", status, resp)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// decide drives constraint authoring: consistency checks with random
// extra constraints (never memoized) and memoized implication queries.
type decide struct {
	in      *gen.Decide
	ids     []string
	bodies  [][]byte   // per consistency request
	qbodies [][][]byte // per spec, per query

	// Answers from setup's warm-up, which every timed implication must
	// repeat; counterexamples are re-validated after the run.
	implied [][]bool
	ces     [][]string

	mu       sync.Mutex
	verdicts map[int]bool   // first verdict per consistency request
	witness  map[int]string // first witness per consistency request
}

func newDecide(seed uint64) *decide {
	w := &decide{in: gen.NewDecide(seed), verdicts: map[int]bool{}, witness: map[int]string{}}
	for _, r := range w.in.Consistent {
		body := map[string]any{"extra": gen.Strings(r.Extra)}
		if r.SkipWitness {
			body["skip_witness"] = true
		}
		b, _ := json.Marshal(body) // strings and bools always marshal
		w.bodies = append(w.bodies, b)
	}
	for _, sp := range w.in.Specs {
		var qs [][]byte
		for _, q := range sp.Queries {
			b, _ := json.Marshal(map[string]string{"query": q.String()})
			qs = append(qs, b)
		}
		w.qbodies = append(w.qbodies, qs)
	}
	return w
}

type consistentResp struct {
	Consistent bool   `json:"consistent"`
	Witness    string `json:"witness"`
}

type impliesResp struct {
	Implied        bool   `json:"implied"`
	Counterexample string `json:"counterexample"`
}

func (w *decide) setup(s *server) error {
	c := s.newClient()
	w.ids = w.ids[:0]
	for _, sp := range w.in.Specs {
		id, err := compileSpec(c, sp.Schema.DTD(), gen.Source(sp.Sigma))
		if err != nil {
			return fmt.Errorf("spec %s: %w", sp.Schema.Name, err)
		}
		w.ids = append(w.ids, id)
	}
	w.implied, w.ces = nil, nil
	for si := range w.in.Specs {
		var imp []bool
		var ces []string
		for q := range w.qbodies[si] {
			status, body, _, err := c.do("implies", "POST", "/v1/specs/"+w.ids[si]+"/implies", w.qbodies[si][q])
			if err != nil {
				return err
			}
			var r impliesResp
			if status != http.StatusOK || json.Unmarshal(body, &r) != nil {
				return fmt.Errorf("warm implies: status %d: %s", status, body)
			}
			imp = append(imp, r.Implied)
			ces = append(ces, r.Counterexample)
		}
		w.implied = append(w.implied, imp)
		w.ces = append(w.ces, ces)
	}
	return nil
}

func (w *decide) loop(c int, cl *client, deadline time.Time, rec *recorder) {
	ops := w.in.Ops
	for i := c * len(ops) / clients; time.Now().Before(deadline); i++ {
		op := ops[i%len(ops)]
		rec.attempted++
		if op.Consistent < 0 {
			w.implies(cl, op, rec)
		} else {
			w.consistent(cl, op.Consistent, rec)
		}
	}
}

func (w *decide) consistent(cl *client, idx int, rec *recorder) {
	req := w.in.Consistent[idx]
	body := w.bodies[idx]
	status, resp, d, err := cl.do("consistent", "POST", "/v1/specs/"+w.ids[req.Spec]+"/consistent", body)
	if err != nil || status != http.StatusOK {
		rec.fail("consistent %d: status %d, err %v: %.200s", idx, status, err, resp)
		return
	}
	var r consistentResp
	if err := json.Unmarshal(resp, &r); err != nil {
		rec.fail("consistent %d: %v", idx, err)
		return
	}
	switch {
	case req.Want != nil && r.Consistent != *req.Want:
		rec.fail("consistent %d: known answer %v, got %v", idx, *req.Want, r.Consistent)
		return
	case r.Consistent && !req.SkipWitness && r.Witness == "":
		rec.fail("consistent %d: no witness", idx)
		return
	case (!r.Consistent || req.SkipWitness) && r.Witness != "":
		rec.fail("consistent %d: unexpected witness", idx)
		return
	}
	w.mu.Lock()
	v, seen := w.verdicts[idx]
	if !seen {
		w.verdicts[idx] = r.Consistent
		if r.Witness != "" {
			w.witness[idx] = r.Witness
		}
	}
	w.mu.Unlock()
	if seen && v != r.Consistent {
		rec.fail("consistent %d: verdict changed between repeats", idx)
		return
	}
	rec.ok("consistent", d, len(body))
}

func (w *decide) implies(cl *client, op gen.DecideOp, rec *recorder) {
	body := w.qbodies[op.Spec][op.Query]
	status, resp, d, err := cl.do("implies", "POST", "/v1/specs/"+w.ids[op.Spec]+"/implies", body)
	if err != nil || status != http.StatusOK {
		rec.fail("implies %d/%d: status %d, err %v: %.200s", op.Spec, op.Query, status, err, resp)
		return
	}
	var r impliesResp
	if err := json.Unmarshal(resp, &r); err != nil {
		rec.fail("implies: %v", err)
		return
	}
	if r.Implied != w.implied[op.Spec][op.Query] || (r.Counterexample == "") != r.Implied {
		rec.fail("implies %d/%d: answer differs from the warm-up's", op.Spec, op.Query)
		return
	}
	rec.ok("implies", d, len(body))
}

// finish re-validates, with the benchmark's own oracle, every witness
// against Σ plus its extras, and every counterexample: it must satisfy Σ
// and violate the query.
func (w *decide) finish(_ *client, rec *recorder) {
	for idx, doc := range w.witness {
		req := w.in.Consistent[idx]
		sp := w.in.Specs[req.Spec]
		set := append(append([]gen.Con(nil), sp.Sigma...), req.Extra...)
		if n, _, err := sp.Schema.Check(strings.NewReader(doc), set); err != nil || n != 0 {
			rec.fail("witness of consistency request %d fails its spec (%d problems, %v)", idx, n, err)
		}
	}
	for si, sp := range w.in.Specs {
		for q, ce := range w.ces[si] {
			if ce == "" {
				continue
			}
			n, _, err := sp.Schema.Check(strings.NewReader(ce), sp.Sigma)
			m, _, _ := sp.Schema.Check(strings.NewReader(ce), []gen.Con{sp.Queries[q]})
			if err != nil || n != 0 || m == 0 {
				rec.fail("counterexample %s/%d: %d problems under Σ (want 0), %d under φ (want >0), %v", sp.Schema.Name, q, n, m, err)
			}
		}
	}
}

// shape: consistency checks are the main requests, memoized implications
// the side ones.
func (w *decide) shape() shape {
	return shape{all: []string{"consistent", "implies"}, main: []string{"consistent"}, side: []string{"implies"},
		tail: 0.99, setups: 5}
}

// compareTrace checks that the traced run's decomposed replay reached
// xicd's verdict on every request both saw.
func (w *decide) compareTrace(tr *traceResult) int {
	bad := 0
	for idx, v := range tr.Verdicts {
		if got, ok := w.verdicts[idx]; ok && got != v {
			fmt.Fprintf(os.Stderr, "load: consistency request %d: xicd says %v, traced replay %v\n", idx, got, v)
			bad++
		}
	}
	return bad
}
