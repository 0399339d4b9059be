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

// pinnedSystem is one Ψ(D,Σ) whose presolve result is pinned by hash.
type pinnedSystem struct {
	name string
	sys  *linear.System
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

// pinnedSystems lists the inputs of TestReducedSystemsPinned: 400 seeded
// random DTDs with random unary constraint sets (negations included), and
// the teacher family with and without foreign keys.
func pinnedSystems(tb testing.TB) []pinnedSystem {
	var out []pinnedSystem
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
		out = append(out, pinnedSystem{fmt.Sprintf("randgen-%d", seed), encodeSpec(tb, d, set)})
	}
	for n := 1; n <= 8; n++ {
		for _, fk := range []bool{false, true} {
			name := fmt.Sprintf("teachers-%d", n)
			if fk {
				name += "-fk"
			}
			out = append(out, pinnedSystem{name, teacherSystem(tb, n, fk)})
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
	fmt.Fprintf(h, "values=%s\n", bigList(res.Values))
	fmt.Fprintf(h, "stats=%+v\n", res.Stats)
	if res.Sys != nil {
		fmt.Fprintf(h, "sys:\n%s", res.Sys)
	}
	fmt.Fprintf(h, "fixed=%s\n", bigList(res.Fixed))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func bigList(xs []*big.Int) string {
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
	want := readPins(t, "testdata/reduced.txt")
	var got strings.Builder
	bad := 0
	for _, in := range pinnedSystems(t) {
		h := resultHash(Run(in.sys))
		fmt.Fprintf(&got, "%s %s\n", in.name, h)
		if w, ok := want[in.name]; !ok || w != h {
			bad++
			if bad <= 20 {
				t.Errorf("%s: presolve result hash %s, pinned %q", in.name, h, w)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of the pinned results changed; the current list is:\n%s", bad, got.String())
	}
}

func readPins(t *testing.T, path string) map[string]string {
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
