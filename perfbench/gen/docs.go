package gen

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand/v2"
	"strconv"
)

// DocSpec is a document schema with its constraint set: keys, foreign
// keys and inclusions, no negations.
type DocSpec struct {
	Schema *Schema
	Sigma  []Con
}

// Corruption kinds. Each corrupts one element in a way the validator
// reports as exactly one violation.
const (
	Clean    = ""
	DupKey   = "duplicate-key"
	Dangling = "dangling-reference"
	Content  = "content-model"
	NoAttr   = "missing-attribute"
)

var corruptions = []string{DupKey, Dangling, Content, NoAttr}

// Doc is one generated document and its generator's record of the
// verdict the program must give.
type Doc struct {
	Spec       int
	XML        []byte
	Elements   int
	Violations int
	Corruption string
}

// docSpecs are the ingest schemas: a catalog (items with links and
// parts), a course registry and a ledger.
func docSpecs() []DocSpec {
	catalog := NewSchema("catalog",
		Elem{Name: "catalog", Content: Seq{Plus{Name("cat")}, Star{Name("item")}}},
		Elem{Name: "cat", Content: Text{}, Attrs: []string{"code"}},
		Elem{Name: "item", Content: Seq{Name("name"), Star{Name("link")}, Star{Name("part")}}, Attrs: []string{"id", "group", "rev"}},
		Elem{Name: "name", Content: Text{}},
		Elem{Name: "link", Content: Empty{}, Attrs: []string{"to"}},
		Elem{Name: "part", Content: Text{}, Attrs: []string{"pn"}},
	)
	registry := NewSchema("registry",
		Elem{Name: "registry", Content: Plus{Name("dept")}},
		Elem{Name: "dept", Content: Seq{Name("title"), Star{Name("course")}}, Attrs: []string{"dno", "budget"}},
		Elem{Name: "title", Content: Text{}},
		Elem{Name: "course", Content: Star{Name("enroll")}, Attrs: []string{"cno", "dref"}},
		Elem{Name: "enroll", Content: Empty{}, Attrs: []string{"eid", "cno", "sid"}},
	)
	ledger := NewSchema("ledger",
		Elem{Name: "ledger", Content: Seq{Plus{Name("acct")}, Star{Name("txn")}}},
		Elem{Name: "acct", Content: Empty{}, Attrs: []string{"no", "owner"}},
		Elem{Name: "txn", Content: Seq{Opt{Name("memo")}, Name("amt")}, Attrs: []string{"tid", "from", "to"}},
		Elem{Name: "memo", Content: Text{}},
		Elem{Name: "amt", Content: Text{}},
	)
	return []DocSpec{
		{Schema: catalog, Sigma: []Con{
			{Kind: Key, T1: "cat", A1: "code"},
			{Kind: FK, T1: "link", A1: "to", T2: "item", A2: "id"},
			{Kind: Incl, T1: "item", A1: "group", T2: "cat", A2: "code"},
			{Kind: Key, T1: "part", A1: "pn"},
		}},
		{Schema: registry, Sigma: []Con{
			{Kind: FK, T1: "course", A1: "dref", T2: "dept", A2: "dno"},
			{Kind: Key, T1: "course", A1: "cno"},
			{Kind: Incl, T1: "enroll", A1: "cno", T2: "course", A2: "cno"},
			{Kind: Key, T1: "enroll", A1: "eid"},
		}},
		{Schema: ledger, Sigma: []Con{
			{Kind: FK, T1: "txn", A1: "from", T2: "acct", A2: "no"},
			{Kind: Incl, T1: "txn", A1: "to", T2: "acct", A2: "no"},
			{Kind: Key, T1: "txn", A1: "tid"},
		}},
	}
}

// IngestOp is one request: validate the document, or open a session on
// it (and close it again).
type IngestOp struct {
	Doc  int
	Open bool
}

// Ingest is the ingest workload's input.
type Ingest struct {
	Specs []DocSpec
	Docs  []Doc
	// Clients holds each client's request sequence. Only the first
	// client opens sessions, so two opens — the workload's largest
	// allocations — never overlap and the server's peak memory is one
	// open's, not a matter of timing.
	Clients [][]IngestOp
}

// Ingest workload shape: documents, and their size range in elements.
const (
	ingestDocs = 143
	ingestMin  = 1e3
	ingestMax  = 1e5
)

// NewIngest generates the ingest workload for a seed. Sizes sit at fixed
// quantiles of a log-uniform distribution (one document per stratum,
// schemas in rotation), and one stratum in eleven holds a corrupted
// document; eleven is coprime with the three-schema rotation, so every
// schema gets corrupted documents. Every seed draws the same size and
// corruption mix; the seed varies the documents' contents and the
// corruption kinds.
func NewIngest(seed uint64) *Ingest {
	rng := rand.New(rand.NewPCG(seed, 0x1a6e57))
	w := &Ingest{Specs: docSpecs()}
	kind := rng.IntN(len(corruptions))
	for k := 0; k < ingestDocs; k++ {
		u := (float64(k) + 0.5) / ingestDocs
		size := int(ingestMin * math.Pow(ingestMax/ingestMin, u))
		corruption := Clean
		if k%11 == 7 {
			corruption = corruptions[kind%len(corruptions)]
			kind++
		}
		w.Docs = append(w.Docs, buildDoc(k%len(w.Specs), size, corruption, rng))
	}
	// Every request stream walks the documents in van der Corput order of
	// their sizes, so every stretch of a stream — a run's partial pass
	// included — mixes small and large documents alike. The first client
	// alternates two streams, validations and session opens, a third of
	// a pass apart; the second, another third on, only validates. A
	// cycle of either client validates (and the first also opens) every
	// document once, and about a quarter of all requests are opens.
	var order []int
	width := bits.Len(uint(len(w.Docs)))
	for j := 0; j < 1<<width; j++ {
		if d := int(bits.Reverse(uint(j)) >> (bits.UintSize - width)); d < len(w.Docs) {
			order = append(order, d)
		}
	}
	n := len(order)
	var opener, validator []IngestOp
	for p := range order {
		opener = append(opener, IngestOp{Doc: order[p]}, IngestOp{Doc: order[(p+n/3)%n], Open: true})
		validator = append(validator, IngestOp{Doc: order[(p+2*n/3)%n]})
	}
	w.Clients = [][]IngestOp{opener, validator}
	return w
}

func buildDoc(spec, size int, corruption string, rng *rand.Rand) Doc {
	var d Doc
	switch spec {
	case 0:
		d = newCatalog(size, 10, 40, rng).render(corruption, rng)
	case 1:
		d = buildRegistry(size, corruption, rng)
	default:
		d = buildLedger(size, corruption, rng)
	}
	d.Spec = spec
	d.Corruption = corruption
	if corruption != Clean {
		d.Violations = 1
	}
	return d
}

// xmlw is a small append-only XML writer.
type xmlw struct {
	b bytes.Buffer
	n int
}

func (w *xmlw) open(label string, attrs ...string) {
	w.n++
	w.b.WriteByte('<')
	w.b.WriteString(label)
	for i := 0; i+1 < len(attrs); i += 2 {
		w.b.WriteByte(' ')
		w.b.WriteString(attrs[i])
		w.b.WriteString(`="`)
		w.b.WriteString(attrs[i+1])
		w.b.WriteByte('"')
	}
	w.b.WriteByte('>')
}

func (w *xmlw) close(label string) {
	w.b.WriteString("</")
	w.b.WriteString(label)
	w.b.WriteString(">\n")
}

func (w *xmlw) empty(label string, attrs ...string) {
	w.open(label, attrs...)
	w.b.Truncate(w.b.Len() - 1)
	w.b.WriteString("/>\n")
}

func (w *xmlw) text(label, value string, attrs ...string) {
	w.open(label, attrs...)
	w.b.WriteString(value)
	w.close(label)
}

func itoa(i int) string { return strconv.Itoa(i) }

// catalogItem is one item of a catalog document; the edit workload's
// shadow model keeps these.
type catalogItem struct {
	id    string
	links []string
	parts int
	refs  int // links pointing at this item
}

func (it *catalogItem) size() int { return 2 + len(it.links) + it.parts }

// catalog is a catalog document in structured form.
type catalog struct {
	cats   []string
	items  []*catalogItem
	serial int // next fresh serial for ids
}

// newCatalog builds a catalog of about size elements whose items carry
// between minParts and maxParts parts and up to two links each.
func newCatalog(size, minParts, maxParts int, rng *rand.Rand) *catalog {
	c := &catalog{}
	ncat := 4 + size/5000
	for i := 0; i < ncat; i++ {
		c.cats = append(c.cats, "c"+itoa(i))
	}
	total := 1 + ncat
	for total < size {
		it := &catalogItem{id: "i" + itoa(c.serial), parts: minParts + rng.IntN(maxParts-minParts+1)}
		c.serial++
		c.items = append(c.items, it)
		total += it.size()
	}
	for i, it := range c.items {
		nl := rng.IntN(3)
		if i == 0 {
			nl = 1 // every catalog has a link to corrupt
		}
		for k := 0; k < nl; k++ {
			t := c.items[rng.IntN(len(c.items))]
			t.refs++
			it.links = append(it.links, t.id)
		}
	}
	return c
}

func (c *catalog) itemXML(w *xmlw, it *catalogItem, corruption string, pnDup string, rng *rand.Rand) {
	attrs := []string{"id", it.id, "group", c.cats[rng.IntN(len(c.cats))], "rev", itoa(rng.IntN(100))}
	if corruption == NoAttr {
		attrs = attrs[:4]
	}
	w.open("item", attrs...)
	if corruption != Content {
		w.text("name", "item "+it.id)
	}
	for k, l := range it.links {
		if corruption == Dangling && k == 0 {
			l = "missing"
		}
		w.empty("link", "to", l)
	}
	for k := 0; k < it.parts; k++ {
		pn := it.id + "." + itoa(k)
		if corruption == DupKey && k == 1 {
			pn = pnDup
		}
		w.text("part", "x", "pn", pn)
	}
	w.close("item")
}

// render writes the catalog; a corruption hits item 0 (the dangling link)
// or the middle item.
func (c *catalog) render(corruption string, rng *rand.Rand) Doc {
	var w xmlw
	w.open("catalog")
	w.b.WriteByte('\n')
	for _, code := range c.cats {
		w.text("cat", "category "+code, "code", code)
	}
	mid := len(c.items) / 2
	for i, it := range c.items {
		hit := Clean
		if (corruption == Dangling && i == 0) || (corruption != Dangling && i == mid) {
			hit = corruption
		}
		c.itemXML(&w, it, hit, it.id+".0", rng)
	}
	w.close("catalog")
	return Doc{XML: w.b.Bytes(), Elements: w.n}
}

func buildRegistry(size int, corruption string, rng *rand.Rand) Doc {
	type course struct {
		cno    string
		enroll int
	}
	type dept struct {
		dno     string
		courses []course
	}
	var depts []dept
	var cnos []string
	total := 1
	for total < size {
		d := dept{dno: "d" + itoa(len(depts))}
		total += 2
		for k := 3 + rng.IntN(8); k > 0 && total < size; k-- {
			c := course{cno: "k" + itoa(len(cnos)), enroll: 5 + rng.IntN(16)}
			cnos = append(cnos, c.cno)
			d.courses = append(d.courses, c)
			total += 1 + c.enroll
		}
		depts = append(depts, d)
	}
	var w xmlw
	w.open("registry")
	w.b.WriteByte('\n')
	mid := len(depts) / 2
	eid := 0
	for i, d := range depts {
		attrs := []string{"dno", d.dno, "budget", itoa(rng.IntN(1000))}
		if corruption == NoAttr && i == mid {
			attrs = attrs[:2]
		}
		w.open("dept", attrs...)
		if !(corruption == Content && i == mid) {
			w.text("title", "dept "+d.dno)
		}
		for ci, c := range d.courses {
			w.open("course", "cno", c.cno, "dref", depts[rng.IntN(len(depts))].dno)
			for k := 0; k < c.enroll; k++ {
				id, cno := "e"+itoa(eid), cnos[rng.IntN(len(cnos))]
				eid++
				if i == mid && ci == 0 && k == 1 {
					switch corruption {
					case DupKey:
						id = "e" + itoa(eid-2)
					case Dangling:
						cno = "nocourse"
					}
				}
				w.empty("enroll", "eid", id, "cno", cno, "sid", "s"+itoa(rng.IntN(5000)))
			}
			w.close("course")
		}
		w.close("dept")
	}
	w.close("registry")
	return Doc{XML: w.b.Bytes(), Elements: w.n}
}

func buildLedger(size int, corruption string, rng *rand.Rand) Doc {
	naccts := 1 + size/10
	var w xmlw
	w.open("ledger")
	w.b.WriteByte('\n')
	for i := 0; i < naccts; i++ {
		attrs := []string{"no", "a" + itoa(i), "owner", "o" + itoa(rng.IntN(1000))}
		if corruption == NoAttr && i == naccts/2 {
			attrs = attrs[:2]
		}
		w.empty("acct", attrs...)
	}
	ntx := 0
	for w.n < size {
		tid, to := "t"+itoa(ntx), "a"+itoa(rng.IntN(naccts))
		mid := ntx == 1+(size-naccts)/6
		if mid && corruption == DupKey {
			tid = "t0"
		}
		if mid && corruption == Dangling {
			to = "noacct"
		}
		w.open("txn", "tid", tid, "from", "a"+itoa(rng.IntN(naccts)), "to", to)
		if rng.IntN(2) == 0 {
			w.text("memo", "memo "+itoa(ntx))
		}
		if !(mid && corruption == Content) {
			w.text("amt", itoa(rng.IntN(10000)))
		}
		w.close("txn")
		ntx++
	}
	w.close("ledger")
	return Doc{XML: w.b.Bytes(), Elements: w.n}
}
