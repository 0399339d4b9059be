package gen

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// TestDocumentsMatchRecords checks every generated document against the
// oracle: clean documents are valid, corrupted ones are not, the element
// count matches the generator's record, and every schema has corrupted
// documents.
func TestDocumentsMatchRecords(t *testing.T) {
	w := NewIngest(1)
	corrupted := map[int]int{}
	for i, d := range w.Docs {
		if d.Corruption != Clean {
			corrupted[d.Spec]++
		}
		sp := w.Specs[d.Spec]
		problems, elems, err := sp.Schema.Check(bytes.NewReader(d.XML), sp.Sigma)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if elems != d.Elements {
			t.Errorf("doc %d (%s): %d elements, record says %d", i, sp.Schema.Name, elems, d.Elements)
		}
		if (problems == 0) != (d.Corruption == Clean) {
			t.Errorf("doc %d (%s, %q): oracle found %d problems", i, sp.Schema.Name, d.Corruption, problems)
		}
	}
	for si, sp := range w.Specs {
		if corrupted[si] == 0 {
			t.Errorf("no corrupted %s document", sp.Schema.Name)
		}
	}
}

// TestSeedsRepeat checks that a seed always yields the same inputs.
func TestSeedsRepeat(t *testing.T) {
	a, b := NewDecide(7), NewDecide(7)
	if len(a.Ops) != len(b.Ops) || a.Ops[9] != b.Ops[9] {
		t.Fatal("decide request sequences differ for one seed")
	}
	for i := range a.Consistent {
		if Source(a.Consistent[i].Extra) != Source(b.Consistent[i].Extra) {
			t.Fatalf("decide request %d differs for one seed", i)
		}
	}
	x, y := NewEdit(7, 2), NewEdit(7, 2)
	for i := range x.Scripts[1] {
		if string(x.Scripts[1][i].Body) != string(y.Scripts[1][i].Body) {
			t.Fatalf("edit scripts differ at step %d", i)
		}
	}
}

// TestEditScriptIsACycle checks that a client's script returns the
// document to its opening size, with inserts and deletes balanced, so
// repeating it keeps every step's expected outcome.
func TestEditScriptIsACycle(t *testing.T) {
	w := NewEdit(3, 2)
	for c, script := range w.Scripts {
		classes := map[string]int{}
		for _, st := range script {
			classes[st.Class]++
		}
		if last := script[len(script)-1].Elements; last != w.Docs[c].Elements {
			t.Errorf("client %d: script ends at %d elements, the document opened with %d", c, last, w.Docs[c].Elements)
		}
		if classes[ClassInsert] != classes[ClassDelete] || classes[ClassInsert] == 0 || classes[ClassReject] == 0 {
			t.Errorf("client %d: step classes %v", c, classes)
		}
	}
}

// TestIngestOrderMixesKinds checks the ingest sequences: the opener
// validates and opens every document once per cycle, alternating kinds,
// and the other client validates every document once.
func TestIngestOrderMixesKinds(t *testing.T) {
	w := NewIngest(3)
	opens, validates := map[int]int{}, map[int]int{}
	for i, op := range w.Clients[0] {
		if op.Open {
			opens[op.Doc]++
		} else {
			validates[op.Doc]++
		}
		if i > 0 && op.Open == w.Clients[0][i-1].Open {
			t.Fatalf("opener requests %d and %d are of one kind", i-1, i)
		}
	}
	seen := map[int]bool{}
	for _, op := range w.Clients[1] {
		if op.Open {
			t.Fatal("the second client opens a session")
		}
		seen[op.Doc] = true
	}
	for d := range w.Docs {
		if opens[d] != 1 || validates[d] != 1 || !seen[d] {
			t.Errorf("doc %d: %d opens and %d validations by the opener, validated by the other: %v", d, opens[d], validates[d], seen[d])
		}
	}
}

// TestKnownConsistentRequests checks the decide requests built to be
// consistent: every spec has some, every request but the teacher
// families' keys-alone instances carries at least one extra, and a
// document sampled from each schema satisfies the schema and its Σ.
func TestKnownConsistentRequests(t *testing.T) {
	w := NewDecide(11)
	known := map[int]int{}
	for i, r := range w.Consistent {
		consistent := r.Want != nil && *r.Want
		if consistent {
			known[r.Spec]++
		}
		if len(r.Extra) == 0 && !(consistent && r.Spec <= 2) {
			t.Errorf("request %d has no extras", i)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for si, sp := range w.Specs {
		if known[si] == 0 {
			t.Errorf("spec %s has no request known to be consistent", sp.Schema.Name)
		}
		for k := 0; k < 20; k++ {
			doc := sp.Schema.Sample(sp.Sigma, rng)
			if p, _, err := sp.Schema.Check(bytes.NewReader(doc), sp.Sigma); err != nil || p != 0 {
				t.Fatalf("spec %s: sampled document has %d problems (%v):\n%s", sp.Schema.Name, p, err, doc)
			}
		}
	}
}
