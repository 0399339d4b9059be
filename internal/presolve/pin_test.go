package presolve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"strings"
	"testing"

	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/linear"
	"xic/internal/randgen"
)

// PinnedSystem is one Ψ(D,Σ) whose presolve result (and, in the external
// test package, search result) is pinned by hash.
type PinnedSystem struct {
	Name string
	Sys  *linear.System
}

// encodeSpec builds Ψ(D,Σ) as the consistency check does: the cardinality
// encoding of the simplified DTD plus the constraint rows of Σ.
func encodeSpec(tb testing.TB, d *dtd.DTD, set []constraint.Constraint) *linear.System {
	tb.Helper()
	enc, err := cardinality.EncodeDTD(dtd.Simplify(d))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := enc.AddFull(set); err != nil {
		tb.Fatal(err)
	}
	return enc.Sys
}

// teacherSystem is Ψ(D,Σ) of randgen.TeacherFamily(n), with or without
// its foreign keys.
func teacherSystem(tb testing.TB, n int, withFK bool) *linear.System {
	return encodeSpec(tb, randgen.TeacherFamily(n), randgen.TeacherFamilyConstraints(n, withFK))
}

// PinnedSystems lists the inputs of TestReducedSystemsPinned and
// TestSolvedSystemsPinned: 400 seeded
// random DTDs with random unary constraint sets (negations included), and
// the teacher family with and without foreign keys.
func PinnedSystems(tb testing.TB) []PinnedSystem {
	var out []PinnedSystem
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randgen.RandDTD(rng, randgen.DTDSpec{
			Types:     2 + rng.Intn(6),
			Depth:     1 + rng.Intn(3),
			Recursive: rng.Intn(3) == 0,
			AttrsPer:  1 + rng.Intn(2),
		})
		set := randgen.RandUnarySet(rng, d, randgen.SetSpec{
			Keys:          rng.Intn(4),
			ForeignKeys:   rng.Intn(3),
			Inclusions:    rng.Intn(3),
			NegKeys:       rng.Intn(2),
			NegInclusions: rng.Intn(3),
		})
		out = append(out, PinnedSystem{fmt.Sprintf("randgen-%d", seed), encodeSpec(tb, d, set)})
	}
	for n := 1; n <= 8; n++ {
		for _, fk := range []bool{false, true} {
			name := fmt.Sprintf("teachers-%d", n)
			if fk {
				name += "-fk"
			}
			out = append(out, PinnedSystem{name, teacherSystem(tb, n, fk)})
		}
	}
	return out
}

// resultHash digests everything a presolve Result reports: the decision,
// the witness values, the counters, the reduced system's text and the
// fixed values.
func resultHash(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "decided=%v feasible=%v\n", res.Decided, res.Feasible)
	fmt.Fprintf(h, "values=%s\n", BigList(res.Values))
	fmt.Fprintf(h, "stats=%+v\n", res.Stats)
	if res.Sys != nil {
		fmt.Fprintf(h, "sys:\n%s", res.Sys)
	}
	fmt.Fprintf(h, "fixed=%s\n", BigList(res.Fixed))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func BigList(xs []*big.Int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = "-"
		if x != nil {
			parts[i] = x.String()
		}
	}
	return strings.Join(parts, ",")
}

// TestReducedSystemsPinned holds presolve's output fixed: every pinned
// input must reduce to a Result whose hash matches testdata/reduced.txt,
// which was recorded from the big.Int implementation this package
// replaced. A mismatch means a reduction changed (a different reduced
// system, fixing, decision or counter), and with it the pivots, nodes and
// witnesses downstream. After an intended change, replace the file with
// the list the failure logs.
func TestReducedSystemsPinned(t *testing.T) {
	want := ReadPins(t, "testdata/reduced.txt")
	var got strings.Builder
	bad := 0
	for _, in := range PinnedSystems(t) {
		h := resultHash(Run(in.Sys))
		fmt.Fprintf(&got, "%s %s\n", in.Name, h)
		if w, ok := want[in.Name]; !ok || w != h {
			bad++
			if bad <= 20 {
				t.Errorf("%s: presolve result hash %s, pinned %q", in.Name, h, w)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of the pinned results changed; the current list is:\n%s", bad, got.String())
	}
}

func ReadPins(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, h, ok := strings.Cut(sc.Text(), " "); ok {
			pins[name] = h
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}
