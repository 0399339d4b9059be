// Package compilebench defines the committed compile-vs-bind benchmark
// corpus — the single source of truth behind BENCH_compile.json, the CI
// compile gate (cmd/benchdiff -kind compile) and the xicbench table. The
// corpus is the shipped specs/ directory itself: every *.dtd with a
// matching *.xic, plus optional sidecars (*.queries with implication
// queries, *.xml with a document to validate).
//
// Each case is measured two ways:
//
//   - cold: xic.CompileStrings — the full per-DTD compilation — followed by
//     the case's check;
//   - warm: Schema.BindStrings against a schema compiled once up front,
//     followed by the same check.
//
// The check is chosen per case to model the serving path the two-stage API
// amortises, without re-measuring the ILP solve pipeline (which has its own
// corpus and gate in BENCH_solve.json): cases with a *.queries sidecar run
// an implication sweep (answered by the schema's memoized implication cache
// when the schema is stable — the batch-implies serving shape); cases with
// a *.xml sidecar validate the document; remaining decidable cases run the
// consistency decision with witnesses skipped. The gap between the two
// series is exactly the per-DTD work Schema.Bind skips.
package compilebench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xic"
	"xic/internal/constraint"
)

// Case is one corpus entry: the textual sources of a shipped specification
// plus its serving-path check inputs.
type Case struct {
	Name    string
	DTDSrc  string
	ConsSrc string
	// Queries are implication queries (constraint syntax) swept after
	// binding; empty when the case has no *.queries sidecar.
	Queries []string
	// Doc is a document validated after binding; nil when the case has no
	// *.xml sidecar.
	Doc []byte
}

// Corpus loads the benchmark corpus from a specs directory: every *.dtd
// with a matching *.xic becomes a case, in name order.
func Corpus(dir string) ([]Case, error) {
	dtds, err := filepath.Glob(filepath.Join(dir, "*.dtd"))
	if err != nil {
		return nil, err
	}
	sort.Strings(dtds)
	var cases []Case
	for _, dtdPath := range dtds {
		base := strings.TrimSuffix(dtdPath, ".dtd")
		consSrc, err := os.ReadFile(base + ".xic")
		if err != nil {
			if os.IsNotExist(err) {
				continue // a DTD without constraints is not a specification
			}
			return nil, err
		}
		dtdSrc, err := os.ReadFile(dtdPath)
		if err != nil {
			return nil, err
		}
		c := Case{
			Name:    filepath.Base(base),
			DTDSrc:  string(dtdSrc),
			ConsSrc: string(consSrc),
		}
		if qs, err := os.ReadFile(base + ".queries"); err == nil {
			for _, line := range strings.Split(string(qs), "\n") {
				line = strings.TrimSpace(line)
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				c.Queries = append(c.Queries, line)
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
		if doc, err := os.ReadFile(base + ".xml"); err == nil {
			c.Doc = doc
		} else if !os.IsNotExist(err) {
			return nil, err
		}
		if len(cases) > 0 && cases[len(cases)-1].Name == c.Name {
			return nil, fmt.Errorf("duplicate corpus case %q", c.Name)
		}
		cases = append(cases, c)
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("no *.dtd/*.xic pairs under %s", dir)
	}
	return cases, nil
}

// Cold runs one cold iteration: full compile of both sources, then the
// case's check.
func (c Case) Cold(ctx context.Context) error {
	spec, err := xic.CompileStrings(c.DTDSrc, c.ConsSrc)
	if err != nil {
		return fmt.Errorf("%s: %w", c.Name, err)
	}
	return c.check(ctx, spec)
}

// CompileSchema compiles the case's schema for the warm side.
func (c Case) CompileSchema() (*xic.Schema, error) {
	schema, err := xic.CompileDTDString(c.DTDSrc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	return schema, nil
}

// Warm runs one warm iteration: bind the constraint source against the
// pre-compiled schema, then the same check as Cold. On a stable schema the
// implication sweep is answered by the memoized cache — the serving-path
// behaviour the benchmark exists to measure.
func (c Case) Warm(ctx context.Context, schema *xic.Schema) error {
	spec, err := schema.BindStrings(c.ConsSrc)
	if err != nil {
		return fmt.Errorf("%s: %w", c.Name, err)
	}
	return c.check(ctx, spec)
}

// check runs the case's serving-path work against a bound Spec.
func (c Case) check(ctx context.Context, spec *xic.Spec) error {
	spec = spec.WithSolveOptions(xic.WithSkipWitness())
	ran := false
	for _, q := range c.Queries {
		phi, err := constraint.ParseOne(q)
		if err != nil {
			return fmt.Errorf("%s: query %q: %w", c.Name, q, err)
		}
		if _, err := spec.Implies(ctx, phi); err != nil {
			return fmt.Errorf("%s: implies %q: %w", c.Name, q, err)
		}
		ran = true
	}
	if c.Doc != nil {
		if rep, err := spec.ValidateStream(ctx, bytes.NewReader(c.Doc)); err != nil {
			return fmt.Errorf("%s: validate: %w", c.Name, err)
		} else if !rep.OK() {
			return fmt.Errorf("%s: shipped document does not validate: %v", c.Name, rep.Violations)
		}
		ran = true
	}
	if ran {
		return nil
	}
	switch constraint.ClassOf(spec.Constraints()) {
	case constraint.ClassKFK, constraint.ClassOther:
		return nil // undecidable static question, no further check
	}
	if _, err := spec.Consistent(ctx); err != nil {
		return fmt.Errorf("%s: consistent: %w", c.Name, err)
	}
	return nil
}

// BestOf times f, warming once and keeping the best of three, so a
// scheduler stall cannot inflate a committed baseline. Callers reading
// counter deltas across a BestOf call divide by Runs.
func BestOf(f func()) time.Duration {
	f()
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// Runs is the number of times BestOf invokes its function.
const Runs = 4
