package xic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/ilp"
	"xic/internal/randgen"
	"xic/internal/xmlscan"
	"xic/internal/xmltree"
)

// streamBenchDTD is the scalable workload shape shared by the equivalence
// tests and the streaming benchmarks: groups of fixed fan-out under a
// starred root, a key on the group and plain attributes below it, so the
// constraint index holds one entry per group while the tree holds every
// node.
const streamBenchDTD = `
<!ELEMENT lib (grp*)>
<!ELEMENT grp (item, item, item, item)>
<!ELEMENT item EMPTY>
<!ATTLIST grp id CDATA #REQUIRED>
<!ATTLIST item val CDATA #REQUIRED>
`

const streamBenchXIC = "grp.id -> grp"

func compileStream(t testing.TB, dtdSrc, consSrc string) *Spec {
	t.Helper()
	spec, err := CompileStrings(dtdSrc, consSrc)
	if err != nil {
		t.Fatalf("CompileStrings: %v", err)
	}
	return spec
}

// genDoc renders a pseudo-random conforming document of about n element
// nodes. pool 0 makes attribute values unique (keys hold).
func genDoc(t testing.TB, dtdSrc string, n, pool int, seed int64) []byte {
	t.Helper()
	d, err := dtd.Parse(dtdSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := randgen.WriteDocument(&buf, d, rand.New(rand.NewSource(seed)), randgen.DocSpec{
		TargetNodes: n, ValuePool: pool,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestValidateStreamMatchesValidateOnFixtures checks the shipped specs:
// the streaming verdict must equal Parse+Validate on the same bytes.
func TestValidateStreamMatchesValidateOnFixtures(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join("specs", name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return string(data)
	}
	school := compileStream(t, read("school.dtd"), read("school.xic"))
	doc := read("school.xml")
	rep, err := school.ValidateStream(context.Background(), strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ValidateStream: %v", err)
	}
	tree, err := ParseDocumentString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if treeOK := school.Validate(context.Background(), tree) == nil; treeOK != rep.OK() {
		t.Fatalf("verdicts differ on school.xml: tree=%v stream=%v (%v)", treeOK, rep.OK(), rep.Violations)
	}
	if !rep.OK() {
		t.Errorf("specs/school.xml must stream-validate: %v", rep.Violations)
	}

	// The paper's Figure 1 document violates Σ1; both paths must say so.
	teachers, err := Compile(dtd.Teachers(), constraint.Sigma1()...)
	if err != nil {
		t.Fatal(err)
	}
	fig1 := xmltree.Serialize(xmltree.Figure1())
	rep, err = teachers.ValidateStream(context.Background(), strings.NewReader(fig1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("Figure 1 must violate Σ1 under streaming validation")
	}
	if verr := teachers.Validate(context.Background(), xmltree.Figure1()); verr == nil {
		t.Error("Figure 1 must violate Σ1 under tree validation")
	}
}

// TestValidateStreamMatchesValidateOnGenerated drives generated documents
// of several sizes and value pools through both paths; verdicts must agree
// even when collisions make the documents invalid.
func TestValidateStreamMatchesValidateOnGenerated(t *testing.T) {
	spec := compileStream(t, streamBenchDTD, streamBenchXIC+"\nitem.val <= grp.id\n")
	for _, n := range []int{50, 2000} {
		for _, pool := range []int{0, 5} {
			doc := genDoc(t, streamBenchDTD, n, pool, int64(n+pool))
			rep, err := spec.ValidateStream(context.Background(), bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("n=%d pool=%d: ValidateStream: %v", n, pool, err)
			}
			tree, err := ParseDocument(bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("n=%d pool=%d: ParseDocument: %v", n, pool, err)
			}
			treeOK := spec.Validate(context.Background(), tree) == nil
			if treeOK != rep.OK() {
				t.Errorf("n=%d pool=%d: verdicts differ: tree=%v stream=%v (%v)",
					n, pool, treeOK, rep.OK(), rep.Violations)
			}
		}
	}
}

// TestValidateStreamParseErrors pins the public error taxonomy for
// unparseable streamed documents: *ParseError with a real line and offset.
func TestValidateStreamParseErrors(t *testing.T) {
	spec := compileStream(t, streamBenchDTD, streamBenchXIC)
	cases := []struct {
		name, doc string
		wantLine  int
	}{
		{"syntax", "<lib>\n<grp id=\"1\"", 2},
		{"multiple roots", "<lib/>\n<lib/>", 2},
		{"attr collision", "<lib>\n<grp a:id=\"1\" b:id=\"2\"><item val=\"v\"/><item val=\"v\"/><item val=\"v\"/><item val=\"v\"/></grp></lib>", 2},
		{"chardata outside root", "<lib/>\nstray", 2},
		{"unsupported encoding", "\n<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n<lib/>", 2},
		{"unsupported version", "<?xml version=\"1.1\"?>\n<lib/>", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := spec.ValidateStream(context.Background(), strings.NewReader(tc.doc))
			if err == nil {
				t.Fatal("ValidateStream succeeded on unparseable input")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not *ParseError", err, err)
			}
			if pe.Input != "document" {
				t.Errorf("Input = %q", pe.Input)
			}
			if pe.Line != tc.wantLine {
				t.Errorf("Line = %d, want %d (%v)", pe.Line, tc.wantLine, pe)
			}
			if pe.Offset < 0 {
				t.Errorf("Offset = %d, want >= 0", pe.Offset)
			}
		})
	}
}

// groupReader generates a streamBenchDTD document of n groups on the fly,
// holding one group at a time, and records the bytes it served and the
// largest read it was asked for.
type groupReader struct {
	n, i    int
	pending []byte
	served  int64
	maxRead int
}

func (g *groupReader) Read(p []byte) (int, error) {
	g.maxRead = max(g.maxRead, len(p))
	for len(g.pending) == 0 {
		switch {
		case g.i == 0:
			g.pending = []byte("<lib>\n")
		case g.i <= g.n:
			g.pending = fmt.Appendf(g.pending[:0], "<grp id=\"g%d\"><item val=\"a\"/><item val=\"b\"/><item val=\"c\"/><item val=\"d\"/></grp>\n", g.i)
		case g.i == g.n+1:
			g.pending = []byte("</lib>\n")
		default:
			return 0, io.EOF
		}
		g.i++
	}
	n := copy(p, g.pending)
	g.pending = g.pending[n:]
	g.served += int64(n)
	return n, nil
}

// TestValidateStreamBoundedBuffer streams a generated document of more
// than 16 MB through ValidateStream and checks that the scanner's read
// buffer never grew: no read asked for more than its initial size.
func TestValidateStreamBoundedBuffer(t *testing.T) {
	spec := compileStream(t, streamBenchDTD, streamBenchXIC)
	g := &groupReader{n: 200000}
	rep, err := spec.ValidateStream(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Elements != 1+5*g.n {
		t.Fatalf("report: ok=%v elements=%d, want ok with %d", rep.OK(), rep.Elements, 1+5*g.n)
	}
	if g.served < 16<<20 {
		t.Fatalf("document is %d bytes, want at least 16 MB", g.served)
	}
	if g.maxRead > xmlscan.DefaultSize {
		t.Fatalf("a read asked for %d bytes: the %d-byte buffer grew", g.maxRead, xmlscan.DefaultSize)
	}
}

// TestValidateStreamCanceled checks the cancellation taxonomy.
func TestValidateStreamCanceled(t *testing.T) {
	spec := compileStream(t, streamBenchDTD, streamBenchXIC)
	doc := genDoc(t, streamBenchDTD, 20000, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := spec.ValidateStream(ctx, bytes.NewReader(doc))
	if err == nil {
		t.Fatal("cancelled ValidateStream succeeded")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("error %v must match ErrCanceled and context.Canceled", err)
	}
}

// TestSolveErrorsBecomeSpecErrors pins the Spec-boundary mapping for the
// solver's internal-error path (the former simplex phase-1 panic): it must
// surface as a *SpecError with Stage "solve".
func TestSolveErrorsBecomeSpecErrors(t *testing.T) {
	err := wrapSolveError(fmt.Errorf("search failed: %w", ilp.ErrInternal))
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("wrapSolveError did not produce a *SpecError: %v", err)
	}
	if se.Stage != "solve" {
		t.Errorf("Stage = %q, want solve", se.Stage)
	}
	if !errors.Is(err, ilp.ErrInternal) {
		t.Error("wrapped error lost the ErrInternal sentinel")
	}
	if !strings.Contains(se.Error(), "solve") {
		t.Errorf("Error() = %q", se.Error())
	}
	// Ordinary errors pass through untouched.
	plain := errors.New("plain")
	if got := wrapSolveError(plain); got != plain {
		t.Errorf("wrapSolveError(plain) = %v", got)
	}
	if wrapSolveError(nil) != nil {
		t.Error("wrapSolveError(nil) != nil")
	}
}

// TestValidateStreamConcurrent shares one Spec across goroutines; run
// under -race this proves the streaming path doesn't serialize or trample
// shared state.
func TestValidateStreamConcurrent(t *testing.T) {
	spec := compileStream(t, streamBenchDTD, streamBenchXIC)
	doc := genDoc(t, streamBenchDTD, 3000, 0, 2)
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 5; i++ {
				rep, err := spec.ValidateStream(context.Background(), bytes.NewReader(doc))
				if err == nil && !rep.OK() {
					err = rep.Err()
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
