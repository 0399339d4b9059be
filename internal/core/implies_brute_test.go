package core

import (
	"errors"
	"math/rand"
	"testing"

	"xic/internal/constraint"
	"xic/internal/ilp"
	"xic/internal/xmltree"
)

func valName(i int) string {
	return "w" + string(rune('0'+i%10)) + string(rune('a'+i/10))
}

// TestImplicationAgainstBruteForce cross-validates Implies against
// exhaustive small-tree search on random specifications.
func TestImplicationAgainstBruteForce(t *testing.T) {
	const maxNodes = 5
	rng := rand.New(rand.NewSource(515))
	trials := 0
	for trial := 0; trial < 80; trial++ {
		d, sigma := randSpec(rng)
		// Draw φ as a random unary key or inclusion over d's attributes.
		types := d.Types()
		pick := func() string { return types[rng.Intn(len(types))] }
		var phi constraint.Constraint
		if rng.Intn(2) == 0 {
			phi = constraint.UnaryKey(pick(), "v")
		} else {
			phi = constraint.UnaryInclusion(pick(), "v", pick(), "v")
		}
		if phi.Validate(d) != nil || constraint.ValidateSet(d, sigma) != nil {
			continue
		}
		imp, err := implies(d, sigma, phi, &Options{Solver: ilp.Options{MaxNodes: 1500}})
		if errors.Is(err, ilp.ErrNodeLimit) {
			continue
		}
		if err != nil {
			t.Fatalf("Implies failed on\n%s Σ:\n%sφ: %s\nerr: %v", d, constraint.FormatSet(sigma), phi, err)
		}
		// Presolve soundness on the coNP path: the raw refutation search
		// must agree with the presolved pipeline.
		raw, err := implies(d, sigma, phi, &Options{
			Solver:      ilp.Options{MaxNodes: 1500, DisablePresolve: true},
			SkipWitness: true,
		})
		if errors.Is(err, ilp.ErrNodeLimit) {
			continue
		}
		if err != nil {
			t.Fatalf("raw Implies failed on\n%s Σ:\n%sφ: %s\nerr: %v", d, constraint.FormatSet(sigma), phi, err)
		}
		if raw.Implied != imp.Implied {
			t.Fatalf("presolve changes the implication verdict: presolved=%v raw=%v on\n%sΣ:\n%sφ: %s",
				imp.Implied, raw.Implied, d, constraint.FormatSet(sigma), phi)
		}
		trials++

		// Brute search for a counterexample tree (Σ ∧ ¬φ).
		found := false
		for _, tr := range enumTrees(d, maxNodes) {
			slots := attrSlots(d, tr)
			domain := len(slots)
			if domain == 0 {
				if ok, _ := constraint.SatisfiedAll(tr, sigma); ok && !constraint.Satisfied(tr, phi) {
					found = true
					break
				}
				continue
			}
			assign := make([]int, len(slots))
			for !found {
				for i, set := range slots {
					set(valName(assign[i]))
				}
				if ok, _ := constraint.SatisfiedAll(tr, sigma); ok && !constraint.Satisfied(tr, phi) {
					found = true
					break
				}
				i := 0
				for ; i < len(assign); i++ {
					assign[i]++
					if assign[i] < domain {
						break
					}
					assign[i] = 0
				}
				if i == len(assign) {
					break
				}
			}
			if found {
				break
			}
		}

		if found && imp.Implied {
			t.Fatalf("Implies says IMPLIED but a small counterexample exists.\nDTD:\n%sΣ:\n%sφ: %s",
				d, constraint.FormatSet(sigma), phi)
		}
		if !imp.Implied && imp.Counterexample != nil {
			// The checker's counterexample must itself be genuine.
			if !xmltree.Conforms(imp.Counterexample, d) {
				t.Fatalf("counterexample does not conform:\n%s", imp.Counterexample)
			}
			if ok, v := constraint.SatisfiedAll(imp.Counterexample, sigma); !ok {
				t.Fatalf("counterexample violates Σ constraint %s", v)
			}
			if constraint.Satisfied(imp.Counterexample, phi) {
				t.Fatalf("counterexample satisfies φ = %s", phi)
			}
			// If it is small, brute force must have found one too.
			n := 0
			imp.Counterexample.Walk(func(*xmltree.Node) bool { n++; return true })
			if n <= maxNodes && !found {
				t.Fatalf("checker counterexample has %d nodes but brute force found none.\nDTD:\n%sΣ:\n%sφ: %s",
					n, d, constraint.FormatSet(sigma), phi)
			}
		}
	}
	if trials < 50 {
		t.Errorf("too few completed trials: %d", trials)
	}
}
