package xic

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"xic/internal/dtd"
)

// nestedPlus is a DTD whose root's content model nests + k deep around
// one element type: 2^k positions once x+ is rewritten as (x, x*).
func nestedPlus(k int) string {
	return "<!ELEMENT r " + strings.Repeat("(", k) + "a" + strings.Repeat(")+", k) + ">\n<!ELEMENT a EMPTY>"
}

// optionalChain is a DTD whose root's content model is (a?, a?, …) with n
// positions.
func optionalChain(n int) string {
	return "<!ELEMENT r (" + strings.Repeat("a?, ", n-1) + "a?)>\n<!ELEMENT a EMPTY>"
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestContentModelPositionBound rejects content models whose automata
// would take more than dtd.MaxPositions positions, before building them: a
// 123-byte DTD nesting + 30 deep would otherwise ask for 2^30 follow
// sets, and the 16 KB optional chain for 290 MB. Models at the bound
// still compile and validate.
func TestContentModelPositionBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		dtd  string
	}{
		{"nested plus, k=30", nestedPlus(30)},
		{"nested plus, k=11", nestedPlus(11)},
		{"optional chain, n=4000", optionalChain(4000)},
		{"optional chain, n=1025", optionalChain(1025)},
	} {
		var err error
		bytes := allocated(func() { _, err = CompileDTDString(tc.dtd) })
		var se *SpecError
		if !errors.As(err, &se) || se.Stage != "dtd" || !strings.Contains(err.Error(), "positions") {
			t.Fatalf("%s: err = %v, want a *SpecError at stage dtd naming the position bound", tc.name, err)
		}
		if HTTPStatus(err) != 422 {
			t.Errorf("%s: HTTPStatus = %d, want 422", tc.name, HTTPStatus(err))
		}
		if bytes > 1<<20 {
			t.Errorf("%s: rejecting the DTD allocated %d bytes, want under 1 MB", tc.name, bytes)
		}
	}
	for _, tc := range []struct {
		name, dtd, doc string
	}{
		{"nested plus, k=10", nestedPlus(10), "<r><a/><a/><a/></r>"},
		{"optional chain, n=1024", optionalChain(dtd.MaxPositions), "<r>" + strings.Repeat("<a/>", dtd.MaxPositions) + "</r>"},
	} {
		sch, err := CompileDTDString(tc.dtd)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		spec, err := sch.Bind()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep, err := spec.ValidateStream(t.Context(), strings.NewReader(tc.doc)); err != nil || !rep.OK() {
			t.Fatalf("%s: ValidateStream = %+v, %v; want a valid document", tc.name, rep, err)
		}
	}
}
