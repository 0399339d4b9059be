// Command xicbench reproduces the paper's evaluation artifacts: the worked
// examples of Sections 1–2 (decision outcomes) and the complexity-results
// table of Figure 5 (empirical scaling series per cell). Output is
// Markdown; EXPERIMENTS.md records a captured run.
//
// Usage:
//
//	xicbench [-full]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"xic"
	"xic/internal/compilebench"
	"xic/internal/constraint"
	"xic/internal/core"
	"xic/internal/dtd"
	"xic/internal/randgen"
	"xic/internal/reduction"
	"xic/internal/relational"
	"xic/internal/solvebench"
)

var (
	full     = flag.Bool("full", false, "run the larger size series")
	specsDir = flag.String("specs", "specs", "shipped specification corpus for the compile-vs-bind table")
)

func main() {
	flag.Parse()
	fmt.Println("# xicbench — reproduction of Fan & Libkin (JACM 2002)")
	fmt.Println()
	workedExamples()
	figure5()
	batchThroughput()
	compileVsBind()
	presolveAblation()
	fastTableauAblation()
	gadgets()
}

// timeIt measures one decision, repeating short runs for stability.
func timeIt(f func()) time.Duration {
	// Warm once, then take the best of three.
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

func check(d *dtd.DTD, set []xic.Constraint) bool {
	spec, err := xic.Compile(d, set...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xicbench:", err)
		os.Exit(1)
	}
	res, err := spec.WithSolveOptions(xic.WithSkipWitness()).Consistent(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "xicbench:", err)
		os.Exit(1)
	}
	return res.Consistent
}

func workedExamples() {
	fmt.Println("## Worked examples (paper claim vs measured)")
	fmt.Println()
	fmt.Println("| id | artifact | paper | measured |")
	fmt.Println("|----|----------|-------|----------|")

	row := func(id, artifact string, paper string, measured string) {
		fmt.Printf("| %s | %s | %s | %s |\n", id, artifact, paper, measured)
	}

	verdict := func(b bool) string {
		if b {
			return "consistent"
		}
		return "inconsistent"
	}

	row("E1", "D1 + Σ1 (Section 1 teachers)", "inconsistent",
		verdict(check(dtd.Teachers(), constraint.Sigma1())))
	row("E2", "D2 (db → foo → foo …)", "no finite tree",
		map[bool]string{true: "has tree", false: "no finite tree"}[xic.ConsistentDTD(dtd.Infinite())])
	row("E3", "D1 + keys only", "consistent",
		verdict(check(dtd.Teachers(), constraint.MustParse("teacher.name -> teacher\nsubject.taught_by -> subject"))))
	sub := "violated"
	if ok, _ := constraint.SatisfiedAll(figure1(), constraint.Sigma1()); ok {
		sub = "satisfied"
	}
	row("F1", "Figure 1 tree vs Σ1", "violates subject key", "Σ1 "+sub)
	fmt.Println()
}

func figure1() *xic.Tree {
	doc, err := xic.ParseDocumentString(`
<teachers>
 <teacher name="Joe">
  <teach><subject taught_by="Joe">XML</subject><subject taught_by="Joe">DB</subject></teach>
  <research>Web DB</research>
 </teacher>
</teachers>`)
	if err != nil {
		panic(err)
	}
	return doc
}

func figure5() {
	fmt.Println("## Figure 5 — complexity table, empirical series")
	fmt.Println()
	fmt.Println("| cell | procedure | workload | size | outcome | time |")
	fmt.Println("|------|-----------|----------|------|---------|------|")

	sizes := []int{25, 50, 100, 200}
	if *full {
		sizes = []int{50, 100, 200, 400, 800}
	}

	// Linear cells: DTD validity, keys-only consistency, keys-only implication.
	for _, n := range sizes {
		d := randgen.ChainDTD(n)
		dur := timeIt(func() { xic.ConsistentDTD(d) })
		fmt.Printf("| validity | Thm 3.5(1), linear | chain DTD | %d types | %v | %v |\n",
			n+1, xic.ConsistentDTD(d), dur)
	}
	for _, n := range sizes {
		d := randgen.ChainDTD(n)
		keys := randgen.KeySetOver(d)
		dur := timeIt(func() { check(d, keys) })
		fmt.Printf("| consistency, keys only | Thm 3.5(2), linear | chain DTD + keys | %d keys | %v | %v |\n",
			len(keys), true, dur)
	}
	for _, n := range sizes {
		d := randgen.ChainDTD(n)
		var keys []xic.Constraint
		for _, k := range randgen.KeySetOver(d) {
			if k.(constraint.Key).Type != "c1" {
				keys = append(keys, k)
			}
		}
		// c1's key is not subsumed; implication holds because a chain DTD
		// admits at most one c1 node (Lemma 3.7's occurrence test).
		phi := constraint.UnaryKey("c1", "k")
		var implied bool
		dur := timeIt(func() { implied, _ = core.ImpliesKey(d, keys, phi) })
		fmt.Printf("| implication, keys only | Thm 3.5(3), linear | chain DTD + keys | %d keys | implied=%v | %v |\n",
			len(keys), implied, dur)
	}

	// NP cell: unary keys and foreign keys, teacher families.
	blocks := []int{1, 2, 4, 8}
	if *full {
		blocks = []int{1, 2, 4, 8, 16}
	}
	for _, b := range blocks {
		d := randgen.TeacherFamily(b)
		bad := randgen.TeacherFamilyConstraints(b, true)
		dur := timeIt(func() { check(d, bad) })
		fmt.Printf("| consistency, unary K+FK | Thm 4.7, NP-complete | teacher family (Σ1-style, primary keys) | %d blocks | %v | %v |\n",
			b, check(d, bad), dur)
	}
	for _, b := range blocks {
		d := randgen.TeacherFamily(b)
		good := randgen.TeacherFamilyConstraints(b, false)
		dur := timeIt(func() { check(d, good) })
		fmt.Printf("| consistency, unary K+FK | Thm 4.7, NP-complete | teacher family (keys only variant) | %d blocks | %v | %v |\n",
			b, check(d, good), dur)
	}

	// coNP cell: unary implication by keys *and foreign keys* (the inverted,
	// consistent Σ1 variant), decided by refuting Σ ∧ ¬φ via the encoding.
	ctx := context.Background()
	for _, b := range blocks {
		d := randgen.TeacherFamily(b)
		sigma := randgen.TeacherFamilyConstraints(b, false)
		sigma = append(sigma, constraint.UnaryForeignKey("teacher_0", "name", "subject_0", "taught_by"))
		phi := constraint.UnaryInclusion("subject_0", "taught_by", "teacher_0", "name")
		spec, err := xic.Compile(d, sigma...)
		if err != nil {
			panic(err)
		}
		spec = spec.WithSolveOptions(xic.WithSkipWitness())
		var imp *xic.Implication
		dur := timeIt(func() {
			var err error
			imp, err = spec.Implies(ctx, phi)
			if err != nil {
				panic(err)
			}
		})
		fmt.Printf("| implication, unary | Thm 4.10/5.4, coNP-complete | teacher family + inverted FK | %d blocks | implied=%v | %v |\n",
			b, imp.Implied, dur)
	}

	// Fixed-DTD PTIME cell: one compiled Spec, growing Σ.
	fixedSizes := []int{4, 8, 16, 32}
	d := randgen.WideDTD(4)
	compiled, err := xic.Compile(d)
	if err != nil {
		panic(err)
	}
	compiled = compiled.WithSolveOptions(xic.WithSkipWitness())
	rng := rand.New(rand.NewSource(99))
	for _, k := range fixedSizes {
		set := randgen.RandUnarySet(rng, d, randgen.SetSpec{Keys: k / 2, ForeignKeys: k / 4, Inclusions: k / 4})
		var res *xic.Result
		dur := timeIt(func() {
			var err error
			res, err = compiled.ConsistentWith(ctx, set...)
			if err != nil {
				panic(err)
			}
		})
		fmt.Printf("| consistency, fixed DTD | Cor 4.11, PTIME in Σ | wide DTD (compiled Spec), random Σ | %d constraints | %v | %v |\n",
			len(set), res.Consistent, dur)
	}

	// Full class with negations (Thm 5.1).
	for _, k := range []int{2, 4, 8} {
		set := randgen.RandUnarySet(rng, d, randgen.SetSpec{Keys: k / 2, Inclusions: k / 2, NegKeys: 1, NegInclusions: 1})
		var res *xic.Result
		dur := timeIt(func() {
			var err error
			res, err = compiled.ConsistentWith(ctx, set...)
			if err != nil {
				panic(err)
			}
		})
		fmt.Printf("| consistency, unary K¬+IC¬ | Thm 5.1, NP-complete | wide DTD, Σ with negations | %d constraints | %v | %v |\n",
			len(set), res.Consistent, dur)
	}
	fmt.Println()
}

// batchThroughput measures the high-throughput serving mode the Spec API
// is designed for: one compiled schema, many independent constraint sets,
// checked sequentially vs. on the bounded worker pool of ConsistentAll.
func batchThroughput() {
	fmt.Println("## Batch throughput — one compiled Spec, many constraint sets")
	fmt.Println()
	fmt.Println("| sets | sequential | ConsistentAll (pooled) |")
	fmt.Println("|------|------------|------------------------|")

	d := randgen.WideDTD(4)
	spec, err := xic.Compile(d)
	if err != nil {
		panic(err)
	}
	spec = spec.WithSolveOptions(xic.WithSkipWitness())
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	sizes := []int{16, 64}
	if *full {
		sizes = []int{16, 64, 256}
	}
	for _, n := range sizes {
		sets := make([][]xic.Constraint, n)
		for i := range sets {
			sets[i] = randgen.RandUnarySet(rng, d, randgen.SetSpec{Keys: 2, ForeignKeys: 1, Inclusions: 1})
		}
		seq := timeIt(func() {
			for _, set := range sets {
				if _, err := spec.ConsistentWith(ctx, set...); err != nil {
					panic(err)
				}
			}
		})
		pooled := timeIt(func() {
			for _, ans := range spec.ConsistentAll(ctx, sets) {
				if ans.Err != nil {
					panic(ans.Err)
				}
			}
		})
		fmt.Printf("| %d | %v | %v |\n", n, seq, pooled)
	}
	fmt.Println()
}

// compileVsBind measures the two-stage split over the shipped specs/
// corpus: cold xic.CompileStrings plus the case's serving check against
// Schema.BindStrings on a schema compiled once plus the same check. The
// corpus is internal/compilebench's — the same cases BENCH_compile.json is
// recorded over and CI gates, so this table describes the numbers the gate
// enforces. The implication-sweep cases are answered by the schema's
// memoized cache on the warm side, which is the serving behaviour the
// two-stage API exists for.
func compileVsBind() {
	fmt.Println("## Compile vs Bind — one schema, many constraint sets")
	fmt.Println()
	corpus, err := compilebench.Corpus(*specsDir)
	if err != nil {
		fmt.Printf("(corpus unavailable: %v — run from the repository root or pass -specs)\n\n", err)
		return
	}
	fmt.Println("| case | cold Compile+check | warm Bind+check | speedup |")
	fmt.Println("|------|--------------------|-----------------|---------|")
	ctx := context.Background()
	for _, c := range corpus {
		schema, err := c.CompileSchema()
		if err != nil {
			panic(err)
		}
		cold := compilebench.BestOf(func() {
			if err := c.Cold(ctx); err != nil {
				panic(err)
			}
		})
		warm := compilebench.BestOf(func() {
			if err := c.Warm(ctx, schema); err != nil {
				panic(err)
			}
		})
		fmt.Printf("| %s | %v | %v | %.1fx |\n", c.Name, cold, warm, float64(cold)/float64(warm))
	}
	fmt.Println()
}

// presolveAblation measures the solve pipeline with the presolve +
// fast-path layer on and off, per corpus case: the wall-time column pair
// is the layer's win, the stats columns say where it came from (rows and
// conditionals eliminated, variables fixed before any simplex pivot).
// The corpus is internal/solvebench's — the same cases BENCH_solve.json
// is recorded over and CI gates, so this table describes the numbers the
// gate enforces.
func presolveAblation() {
	fmt.Println("## Presolve ablation — solver wall time with the layer on vs off")
	fmt.Println()
	fmt.Println("| case | presolved | raw | speedup | presolve decided/fastpath | vars fixed |")
	fmt.Println("|------|-----------|-----|---------|---------------------------|------------|")

	corpus, err := solvebench.Corpus(*full)
	if err != nil {
		panic(err)
	}
	for _, c := range corpus {
		run := func(presolveOn bool) {
			if _, err := c.Run(context.Background(), solvebench.Options(presolveOn)); err != nil {
				panic(err)
			}
		}
		before := c.Checker.SolveStats()
		pre := solvebench.BestOf(func() { run(true) })
		after := c.Checker.SolveStats()
		raw := solvebench.BestOf(func() { run(false) })
		decided := (after.PresolveDecided - before.PresolveDecided) / solvebench.Runs
		fast := (after.FastPath - before.FastPath) / solvebench.Runs
		fixed := (after.VarsFixed - before.VarsFixed) / solvebench.Runs
		fmt.Printf("| %s | %v | %v | %.2fx | %d/%d | %d |\n",
			c.Name, pre, raw, float64(raw)/float64(pre), decided, fast, fixed)
	}
	fmt.Println()
}

// fastTableauAblation isolates the simplex-kernel contribution: both sides
// run the serving configuration (presolve on), one on the overflow-checked
// int64 fast tableau, the other forced onto the exact big.Rat kernel. The
// pivot columns show how the work split — fast pivots answered on int64,
// exact fallbacks where a magnitude overflow pushed an LP back to big.Rat.
func fastTableauAblation() {
	fmt.Println("## Fast-tableau ablation — int64 kernel vs exact big.Rat kernel")
	fmt.Println()
	fmt.Println("| case | fast | exact | speedup | fast pivots | exact fallbacks |")
	fmt.Println("|------|------|-------|---------|-------------|-----------------|")

	corpus, err := solvebench.Corpus(*full)
	if err != nil {
		panic(err)
	}
	for _, c := range corpus {
		run := func(fastOn bool) {
			if _, err := c.Run(context.Background(), solvebench.FastOptions(fastOn)); err != nil {
				panic(err)
			}
		}
		before := c.Checker.SolveStats()
		fastDur := solvebench.BestOf(func() { run(true) })
		after := c.Checker.SolveStats()
		exactDur := solvebench.BestOf(func() { run(false) })
		fastPivots := (after.FastPivots - before.FastPivots) / solvebench.Runs
		fallbacks := (after.ExactFallbacks - before.ExactFallbacks) / solvebench.Runs
		fmt.Printf("| %s | %v | %v | %.2fx | %d | %d |\n",
			c.Name, fastDur, exactDur, float64(exactDur)/float64(fastDur), fastPivots, fallbacks)
	}
	fmt.Println()
}

func gadgets() {
	fmt.Println("## Lower-bound gadgets (undecidable and NP-hard cells)")
	fmt.Println()
	fmt.Println("| cell | reduction | size | time to construct | note |")
	fmt.Println("|------|-----------|------|-------------------|------|")

	// Theorem 3.1: relational implication → XML consistency (construction
	// only — the target problem is undecidable).
	for _, n := range []int{5, 10, 20} {
		s := relational.NewSchema()
		var theta []relational.Dependency
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("R%d", i)
			s.AddRelation(name, "a", "b", "c")
			theta = append(theta, relational.Key{Rel: name, Attrs: []string{"a"}})
		}
		phi := relational.Key{Rel: "R0", Attrs: []string{"b"}}
		dur := timeIt(func() {
			if _, err := reduction.RelationalToXML(s, theta, phi); err != nil {
				panic(err)
			}
		})
		fmt.Printf("| consistency, multi-attr K+FK | Thm 3.1 (undecidable) | %d relations | %v | construction only |\n", n, dur)
	}

	// Lemma 3.3: consistency → implication.
	for _, b := range []int{1, 4, 16} {
		d := randgen.TeacherFamily(b)
		sigma := randgen.TeacherFamilyConstraints(b, true)
		dur := timeIt(func() {
			if _, err := reduction.ConsistencyToKeyImplication(d, sigma); err != nil {
				panic(err)
			}
		})
		fmt.Printf("| implication, multi-attr K+FK | Lemma 3.3 (undecidable) | %d blocks | %v | construction only |\n", b, dur)
	}

	// Theorem 4.7: 0/1-LIP instances through the gadget, solved end-to-end.
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{2, 3}, {3, 4}, {4, 5}} {
		a := randgen.RandLIP01(rng, shape[0], shape[1], 50)
		spec, err := reduction.LIPToSpec(a)
		if err != nil {
			panic(err)
		}
		var res *core.Result
		dur := timeIt(func() {
			eng, err := core.NewEngine(spec.DTD)
			if err != nil {
				panic(err)
			}
			res, err = eng.NewChecker().ConsistentContext(context.Background(), spec.Sigma, &core.Options{SkipWitness: true})
			if err != nil {
				panic(err)
			}
		})
		fmt.Printf("| NP-hardness gadget | Thm 4.7: 0/1-LIP %dx%d | %d constraints | %v | solvable=%v |\n",
			shape[0], shape[1], len(spec.Sigma), dur, res.Consistent)
	}
	fmt.Println()
}
