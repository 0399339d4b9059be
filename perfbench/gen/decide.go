package gen

import (
	"bytes"
	"fmt"
	"math/rand/v2"
)

// DecideSpec is one compiled specification of the decide workload: a
// schema, its bound constraint set Σ, and the implication queries that
// setup warms into the schema's memo.
type DecideSpec struct {
	Schema  *Schema
	Sigma   []Con
	Queries []Con
	// KeysOnly marks the keys-only spec, whose extras are keys too, so
	// its requests take the linear-time path.
	KeysOnly bool
}

// ConsistentReq is one POST /v1/specs/{id}/consistent request.
type ConsistentReq struct {
	Spec        int
	Extra       []Con
	SkipWitness bool
	// Want is the known answer, when the instance has one: the teacher
	// families with and without their foreign keys, and extras that hold
	// on a sampled document, which must be consistent.
	Want *bool
}

// DecideOp is one request of a client's sequence: a consistency check
// (Query < 0) or an implication query from Spec's pool.
type DecideOp struct {
	Consistent int // index into Decide.Consistent, or -1
	Spec       int
	Query      int
}

// Decide is the decide workload's input.
type Decide struct {
	Specs      []DecideSpec
	Consistent []ConsistentReq
	Ops        []DecideOp
}

// Decide workload shape: distinct consistency requests, and implication
// queries per spec.
const (
	decideConsistent = 6000
	decideQueries    = 24
)

// NewDecide generates the decide workload for a seed.
func NewDecide(seed uint64) *Decide {
	rng := rand.New(rand.NewPCG(seed, 0xdec1de))
	w := &Decide{}
	add := func(s DecideSpec) { w.Specs = append(w.Specs, s) }

	d1 := teacherD1()
	add(DecideSpec{Schema: d1, Sigma: []Con{
		{Kind: Key, T1: "teacher", A1: "name"},
		{Kind: Key, T1: "subject", A1: "taught_by"},
	}})
	for _, n := range []int{2, 3} {
		s := teacherBlocks(n)
		var sigma []Con
		for i := 0; i < n; i++ {
			sigma = append(sigma,
				Con{Kind: Key, T1: fmt.Sprintf("teacher_%d", i), A1: "name"},
				Con{Kind: Key, T1: fmt.Sprintf("subject_%d", i), A1: "taught_by"})
		}
		add(DecideSpec{Schema: s, Sigma: sigma})
	}
	for i, k := range []int{6, 6, 4} {
		s := flatSchema(fmt.Sprintf("flat%d%c", k, 'a'+i), k, i)
		var sigma []Con
		for j := 0; j < k; j++ {
			sigma = append(sigma, Con{Kind: Key, T1: fmt.Sprintf("r%d", j), A1: "id"})
		}
		add(DecideSpec{Schema: s, Sigma: sigma})
	}
	add(DecideSpec{Schema: recursiveSchema(), Sigma: []Con{{Kind: Key, T1: "node", A1: "id"}}})
	add(DecideSpec{Schema: keysSchema(), KeysOnly: true, Sigma: []Con{
		{Kind: Key, T1: "bin", A1: "code"},
		{Kind: Key, T1: "box", A1: "serial"},
		{Kind: Key, T1: "item", A1: "sku"},
	}})

	for i := range w.Specs {
		sp := &w.Specs[i]
		for q := 0; q < decideQueries; q++ {
			sp.Queries = append(sp.Queries, randomQuery(sp, q, rng))
		}
	}

	// Spec mix of the consistency requests, in parts per 100: mostly the
	// small flat and teacher schemas, as in real DTD corpora.
	weights := []int{10, 8, 7, 20, 20, 15, 10, 10}
	var specOf []int
	for i, wt := range weights {
		for k := 0; k < wt*decideConsistent/100; k++ {
			specOf = append(specOf, i)
		}
	}
	rng.Shuffle(len(specOf), func(i, j int) { specOf[i], specOf[j] = specOf[j], specOf[i] })
	// Per-spec request counters stratify the request shape — extras
	// count, negation-heavy sets, witness skipping, known answers — so
	// every seed draws the same mix and only the constraints differ. One
	// request in eight is known to be consistent (extras that hold on a
	// sampled document), so a wrong "inconsistent" shows on every spec.
	nth := make([]int, len(w.Specs))
	for _, si := range specOf {
		sp := &w.Specs[si]
		n := nth[si]
		nth[si]++
		req := ConsistentReq{Spec: si, SkipWitness: n%5 == 4}
		switch {
		case si <= 2 && n%8 == 0:
			// Known answers (Section 1 of the paper): a teacher family is
			// inconsistent with one block's foreign key added, and
			// consistent with its keys alone.
			block := ""
			if si > 0 {
				block = fmt.Sprintf("_%d", rng.IntN(si+1))
			}
			want := n%16 == 8
			if !want {
				req.Extra = []Con{{Kind: FK, T1: "subject" + block, A1: "taught_by", T2: "teacher" + block, A2: "name"}}
			}
			req.Want = &want
		case n%8 == 5:
			req.Extra = holdingExtras(sp, 1+(n/8)%6, si >= 3 && si <= 5, rng)
			want := true
			req.Want = &want
		case sp.KeysOnly:
			for k := 1 + n%4; k > 0; k-- {
				req.Extra = append(req.Extra, randomCon(sp.Schema, Key, rng))
			}
		default:
			heavy := si >= 3 && si <= 5 && n%4 == 1
			req.Extra = randomExtras(sp.Schema, 1+n%6, heavy, rng)
		}
		w.Consistent = append(w.Consistent, req)
	}

	// Three consistency checks to one memoized implication query.
	for i := range w.Consistent {
		w.Ops = append(w.Ops, DecideOp{Consistent: i})
	}
	for k := 0; k < len(w.Consistent)/3; k++ {
		si := rng.IntN(len(w.Specs))
		w.Ops = append(w.Ops, DecideOp{Consistent: -1, Spec: si, Query: rng.IntN(decideQueries)})
	}
	rng.Shuffle(len(w.Ops), func(i, j int) { w.Ops[i], w.Ops[j] = w.Ops[j], w.Ops[i] })
	return w
}

// randomExtras draws n unary constraints; a heavy set has 4–6, at least
// half of them negations — the tail that needs branching.
func randomExtras(s *Schema, n int, heavy bool, rng *rand.Rand) []Con {
	if heavy {
		n = 4 + n%3
	}
	out := make([]Con, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, randomCon(s, extraKind(i, n, heavy, rng), rng))
	}
	return out
}

// extraKind draws the kind of the i-th of n extras; the first half of a
// heavy set are negations.
func extraKind(i, n int, heavy bool, rng *rand.Rand) Kind {
	if heavy && i < (n+1)/2 {
		return []Kind{NotKey, NotIncl, NotIncl}[rng.IntN(3)]
	}
	return []Kind{Key, Key, FK, Incl, Incl, NotKey, NotIncl}[rng.IntN(7)]
}

// holdingExtras draws up to n extras, shaped as randomExtras draws them,
// that all hold on one document sampled from the spec's schema and Σ:
// that document witnesses Σ plus the extras, so the request must be
// answered consistent. Σ's own keys always hold, so at least one is found.
func holdingExtras(sp *DecideSpec, n int, heavy bool, rng *rand.Rand) []Con {
	if heavy {
		n = 4 + n%3
	}
	doc := sp.Schema.Sample(sp.Sigma, rng)
	var out []Con
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		k := Key
		if !sp.KeysOnly {
			k = extraKind(len(out), n, heavy, rng)
		}
		c := randomCon(sp.Schema, k, rng)
		if p, _, err := sp.Schema.Check(bytes.NewReader(doc), []Con{c}); err == nil && p == 0 {
			out = append(out, c)
		}
	}
	return out
}

// randomQuery draws the q-th implication query: a key, an inclusion or a
// foreign key, in rotation (keys only for the keys-only spec).
func randomQuery(sp *DecideSpec, q int, rng *rand.Rand) Con {
	if sp.KeysOnly {
		return randomCon(sp.Schema, Key, rng)
	}
	return randomCon(sp.Schema, []Kind{Key, Incl, Incl, FK}[q%4], rng)
}

// randomCon draws one constraint of kind k over the schema's attributes.
func randomCon(s *Schema, k Kind, rng *rand.Rand) Con {
	pairs := s.AttrPairs()
	a := pairs[rng.IntN(len(pairs))]
	c := Con{Kind: k, T1: a[0], A1: a[1]}
	if k == Key || k == NotKey {
		return c
	}
	for {
		b := pairs[rng.IntN(len(pairs))]
		if b != a {
			c.T2, c.A2 = b[0], b[1]
			return c
		}
	}
}

// teacherD1 is the paper's teacher DTD D1 (Section 1).
func teacherD1() *Schema {
	return NewSchema("teacher",
		Elem{Name: "teachers", Content: Plus{Name("teacher")}},
		Elem{Name: "teacher", Content: Seq{Name("teach"), Name("research")}, Attrs: []string{"name"}},
		Elem{Name: "teach", Content: Seq{Name("subject"), Name("subject")}},
		Elem{Name: "research", Content: Text{}},
		Elem{Name: "subject", Content: Text{}, Attrs: []string{"taught_by"}},
	)
}

// teacherBlocks is D1 scaled to n independent blocks under one root.
func teacherBlocks(n int) *Schema {
	root := Elem{Name: "school"}
	var elems []Elem
	var items Seq
	for i := 0; i < n; i++ {
		sfx := fmt.Sprintf("_%d", i)
		items = append(items, Name("teachers"+sfx))
		elems = append(elems,
			Elem{Name: "teachers" + sfx, Content: Plus{Name("teacher" + sfx)}},
			Elem{Name: "teacher" + sfx, Content: Seq{Name("teach" + sfx), Name("research" + sfx)}, Attrs: []string{"name"}},
			Elem{Name: "teach" + sfx, Content: Seq{Name("subject" + sfx), Name("subject" + sfx)}},
			Elem{Name: "research" + sfx, Content: Text{}},
			Elem{Name: "subject" + sfx, Content: Text{}, Attrs: []string{"taught_by"}},
		)
	}
	root.Content = items
	return NewSchema(fmt.Sprintf("teacher%d", n), append([]Elem{root}, elems...)...)
}

// flatSchema is a flat keyed DTD: k sections under the root, each
// holding records r_i under one of six multiplicities, rotated by variant.
func flatSchema(name string, k, variant int) *Schema {
	root := Elem{Name: "db"}
	var elems []Elem
	var items Seq
	for i := 0; i < k; i++ {
		sec, rec := fmt.Sprintf("s%d", i), Name(fmt.Sprintf("r%d", i))
		items = append(items, Name(sec))
		mults := []Model{
			Seq{rec, rec},
			Plus{rec},
			Seq{rec, Opt{rec}},
			Star{rec},
			Seq{rec, rec, rec},
			Seq{rec, Plus{rec}},
		}
		attrs := []string{"id", "ref"}
		if i%2 == 0 {
			attrs = append(attrs, "tag")
		}
		elems = append(elems,
			Elem{Name: sec, Content: mults[(i+variant)%len(mults)]},
			Elem{Name: string(rec), Content: Empty{}, Attrs: attrs},
		)
	}
	root.Content = items
	return NewSchema(name, append([]Elem{root}, elems...)...)
}

// recursiveSchema is a recursive DTD: nodes nest to any depth.
func recursiveSchema() *Schema {
	return NewSchema("tree",
		Elem{Name: "tree", Content: Name("node")},
		Elem{Name: "node", Content: Seq{Name("leaf"), Star{Name("node")}}, Attrs: []string{"id", "kind"}},
		Elem{Name: "leaf", Content: Empty{}, Attrs: []string{"val", "ref"}},
	)
}

// keysSchema carries the keys-only spec.
func keysSchema() *Schema {
	return NewSchema("keys",
		Elem{Name: "inventory", Content: Plus{Name("bin")}},
		Elem{Name: "bin", Content: Seq{Name("label"), Star{Name("box")}}, Attrs: []string{"code"}},
		Elem{Name: "label", Content: Text{}},
		Elem{Name: "box", Content: Plus{Name("item")}, Attrs: []string{"serial", "shelf"}},
		Elem{Name: "item", Content: Empty{}, Attrs: []string{"sku", "lot"}},
	)
}
