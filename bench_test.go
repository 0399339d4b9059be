package xic

// Benchmark harness for every artifact in the paper's evaluation: the four
// illustrative figures and every cell of the Figure 5 complexity table.
// The paper (a 2001 theory paper) reports no wall-clock numbers; these
// benchmarks validate the *shape* of each result — which procedures are
// linear, which pay NP/coNP prices and where, and that all decision
// outcomes match the paper's worked examples. EXPERIMENTS.md records a
// captured run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/core"
	"xic/internal/dtd"
	"xic/internal/randgen"
	"xic/internal/reduction"
	"xic/internal/relational"
	"xic/internal/solvebench"
	"xic/internal/xmltree"
)

// encodeAll builds Ψ(D,Σ) for a simplified DTD and a unary constraint set.
func encodeAll(simp *dtd.Simplified, set []constraint.Constraint) (*cardinality.Encoding, error) {
	enc, err := cardinality.EncodeDTD(simp)
	if err != nil {
		return nil, err
	}
	if _, err := enc.AddFull(set); err != nil {
		return nil, err
	}
	return enc, nil
}

// consistentOnce and impliesOnce decide one instance with every per-DTD
// step inside the call — DTD validation, simplification, the encoding —
// as the general (not fixed-DTD) cells of Figure 5 count them.
func consistentOnce(d *dtd.DTD, set []constraint.Constraint, opt *core.Options) (*core.Result, error) {
	eng, err := core.NewEngine(d)
	if err != nil {
		return nil, err
	}
	return eng.NewChecker().ConsistentContext(context.Background(), set, opt)
}

func impliesOnce(d *dtd.DTD, sigma []constraint.Constraint, phi constraint.Constraint, opt *core.Options) (*core.Implication, error) {
	eng, err := core.NewEngine(d)
	if err != nil {
		return nil, err
	}
	return eng.NewChecker().ImpliesContext(context.Background(), sigma, phi, opt)
}

// ---- Figures 1–4 -----------------------------------------------------

// BenchmarkFigure1Tree builds the Figure 1 document and validates it
// against D1 and Σ1 (conforms; violates the subject key).
func BenchmarkFigure1Tree(b *testing.B) {
	d := dtd.Teachers()
	sigma := constraint.Sigma1()
	v := xmltree.NewValidator(d)
	for i := 0; i < b.N; i++ {
		tr := xmltree.Figure1()
		if err := v.Validate(tr); err != nil {
			b.Fatal(err)
		}
		if ok, _ := constraint.SatisfiedAll(tr, sigma); ok {
			b.Fatal("Figure 1 should violate Σ1")
		}
	}
}

// BenchmarkFigure2Reduction runs the Theorem 3.1 reduction and realises the
// Figure 2 document from a relational instance.
func BenchmarkFigure2Reduction(b *testing.B) {
	s := relational.NewSchema()
	s.AddRelation("R", "a", "b", "c")
	theta := []relational.Dependency{relational.Key{Rel: "R", Attrs: []string{"c"}}}
	phi := relational.Key{Rel: "R", Attrs: []string{"a"}}
	inst := relational.NewInstance(s)
	for i := 0; i < 10; i++ {
		_ = inst.Insert("R", relational.Tuple{"a": "x", "b": fmt.Sprint(i), "c": fmt.Sprint(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := reduction.RelationalToXML(s, theta, phi)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := spec.TreeFromInstance(inst)
		if err != nil {
			b.Fatal(err)
		}
		if !xmltree.Conforms(tree, spec.DTD) {
			b.Fatal("Figure 2 tree does not conform")
		}
	}
}

// BenchmarkFigure3Reduction runs the Lemma 3.3 reduction (consistency →
// implication) and decides the resulting implication instance.
func BenchmarkFigure3Reduction(b *testing.B) {
	d := dtd.Teachers()
	sigma := constraint.MustParse("teacher.name -> teacher")
	for i := 0; i < b.N; i++ {
		inst, err := reduction.ConsistencyToKeyImplication(d, sigma)
		if err != nil {
			b.Fatal(err)
		}
		imp, err := impliesOnce(inst.DTD, inst.Sigma, inst.Phi, &core.Options{SkipWitness: true})
		if err != nil {
			b.Fatal(err)
		}
		if imp.Implied {
			b.Fatal("consistent Σ must make the reduced implication fail")
		}
	}
}

// BenchmarkFigure4Reduction runs the Theorem 4.7 reduction (0/1-LIP →
// consistency) end to end, extracting and checking the solution.
func BenchmarkFigure4Reduction(b *testing.B) {
	a := [][]int{{1, 0, 1}, {0, 1, 1}}
	for i := 0; i < b.N; i++ {
		spec, err := reduction.LIPToSpec(a)
		if err != nil {
			b.Fatal(err)
		}
		res, err := consistentOnce(spec.DTD, spec.Sigma, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consistent || !spec.Eval(spec.Solution(res.Witness)) {
			b.Fatal("solvable instance mishandled")
		}
	}
}

// ---- Figure 5, row "consistency" -------------------------------------

// BenchmarkDTDValidity is the linear-time "is there a valid tree at all"
// check underlying the keys-only column (Theorem 3.5(1)).
func BenchmarkDTDValidity(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		d := randgen.ChainDTD(n)
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !core.ConsistentDTD(d) {
					b.Fatal("chain DTD must have trees")
				}
			}
		})
	}
}

// BenchmarkKeysConsistency is the linear-time cell: multi-attribute keys
// only (Theorem 3.5(2)).
func BenchmarkKeysConsistency(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		d := randgen.ChainDTD(n)
		keys := randgen.KeySetOver(d)
		opt := &core.Options{SkipWitness: true}
		b.Run(fmt.Sprintf("keys-%d", len(keys)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := consistentOnce(d, keys, opt)
				if err != nil || !res.Consistent {
					b.Fatalf("keys over chain: %v %v", res, err)
				}
			}
		})
	}
}

// BenchmarkKeysImplication is the linear-time implication cell
// (Theorem 3.5(3), Lemma 3.7).
func BenchmarkKeysImplication(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		d := randgen.ChainDTD(n)
		keys := randgen.KeySetOver(d)
		phi := constraint.Key{Type: "c1", Attrs: []string{"k"}}
		b.Run(fmt.Sprintf("keys-%d", len(keys)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ImpliesKey(d, keys, phi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnaryConsistency is the NP-complete cell: unary keys and
// foreign keys (Theorem 4.7), on the paper's own inconsistent teacher
// pattern replicated k times and on its consistent keys-only variant.
func BenchmarkUnaryConsistency(b *testing.B) {
	opt := &core.Options{SkipWitness: true}
	for _, blocks := range []int{1, 2, 4} {
		d := randgen.TeacherFamily(blocks)
		bad := randgen.TeacherFamilyConstraints(blocks, true)
		good := randgen.TeacherFamilyConstraints(blocks, false)
		b.Run(fmt.Sprintf("inconsistent-%dblocks", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := consistentOnce(d, bad, opt)
				if err != nil || res.Consistent {
					b.Fatalf("Σ1-family must be inconsistent: %v %v", res, err)
				}
			}
		})
		b.Run(fmt.Sprintf("consistent-%dblocks", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := consistentOnce(d, good, opt)
				if err != nil || !res.Consistent {
					b.Fatalf("keys-only family must be consistent: %v %v", res, err)
				}
			}
		})
	}
}

// BenchmarkPrimaryUnaryConsistency is the primary-key-restricted cell
// (Corollary 4.8) — the teacher family already obeys the restriction, so
// this measures the same NP procedure under the restriction's guard.
func BenchmarkPrimaryUnaryConsistency(b *testing.B) {
	d := randgen.TeacherFamily(2)
	set := randgen.TeacherFamilyConstraints(2, true)
	if err := constraint.CheckPrimaryKeyRestriction(set); err != nil {
		b.Fatal(err)
	}
	opt := &core.Options{SkipWitness: true}
	for i := 0; i < b.N; i++ {
		res, err := consistentOnce(d, set, opt)
		if err != nil || res.Consistent {
			b.Fatalf("restricted Σ1-family must stay inconsistent: %v %v", res, err)
		}
	}
}

// BenchmarkFullClassConsistency is the Theorem 5.1 cell: unary keys,
// inclusion constraints and their negations (intersection-cell encoding).
func BenchmarkFullClassConsistency(b *testing.B) {
	d := randgen.WideDTD(4)
	set := constraint.MustParse(`
s0.id -> s0
s0.id <= s1.id
not s1.id <= s0.id
not s2.id -> s2
`)
	opt := &core.Options{SkipWitness: true}
	for i := 0; i < b.N; i++ {
		res, err := consistentOnce(d, set, opt)
		if err != nil || !res.Consistent {
			b.Fatalf("negation set should be consistent: %v %v", res, err)
		}
	}
}

// ---- Figure 5, row "implication" -------------------------------------

// BenchmarkUnaryImplication is the coNP-complete cell (Theorems 4.10/5.4):
// refuting Σ ∧ ¬φ through the encoding.
func BenchmarkUnaryImplication(b *testing.B) {
	for _, blocks := range []int{1, 2} {
		d := randgen.TeacherFamily(blocks)
		sigma := append(randgen.TeacherFamilyConstraints(blocks, false),
			constraint.UnaryForeignKey("teacher_0", "name", "subject_0", "taught_by"))
		phi := constraint.UnaryInclusion("subject_0", "taught_by", "teacher_0", "name")
		opt := &core.Options{SkipWitness: true}
		b.Run(fmt.Sprintf("%dblocks", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				imp, err := impliesOnce(d, sigma, phi, opt)
				if err != nil || imp.Implied {
					b.Fatalf("inclusion should not be implied: %v %v", imp, err)
				}
			}
		})
	}
}

// ---- Figure 5, column "fixed DTD" ------------------------------------

// BenchmarkFixedDTDConsistency is the PTIME cell of Corollary 4.11: a
// fixed DTD with growing constraint sets.
func BenchmarkFixedDTDConsistency(b *testing.B) {
	d := randgen.WideDTD(4)
	eng, err := core.NewEngine(d)
	if err != nil {
		b.Fatal(err)
	}
	checker := eng.NewChecker()
	rng := rand.New(rand.NewSource(5))
	opt := &core.Options{SkipWitness: true}
	for _, k := range []int{4, 16, 64} {
		set := randgen.RandUnarySet(rng, d, randgen.SetSpec{Keys: k / 2, Inclusions: k / 2})
		b.Run(fmt.Sprintf("sigma-%d", len(set)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := checker.ConsistentContext(context.Background(), set, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFixedDTDImplication is the PTIME implication cell
// (Corollary 5.5).
func BenchmarkFixedDTDImplication(b *testing.B) {
	d := randgen.WideDTD(4)
	eng, err := core.NewEngine(d)
	if err != nil {
		b.Fatal(err)
	}
	checker := eng.NewChecker()
	sigma := constraint.MustParse("s0.id <= s1.id\ns1.id <= s2.id")
	phi := constraint.UnaryInclusion("s0", "id", "s2", "id")
	opt := &core.Options{SkipWitness: true}
	for i := 0; i < b.N; i++ {
		imp, err := checker.ImpliesContext(context.Background(), sigma, phi, opt)
		if err != nil || !imp.Implied {
			b.Fatalf("transitive inclusion must be implied: %v %v", imp, err)
		}
	}
}

// ---- Figure 5, undecidable cells (construction only) ------------------

// BenchmarkUndecidableConsistencyReduction measures constructing the
// Theorem 3.1 gadget — the undecidable cell has no decision procedure to
// measure, so the executable artifact is the reduction itself.
func BenchmarkUndecidableConsistencyReduction(b *testing.B) {
	s := relational.NewSchema()
	var theta []relational.Dependency
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("R%d", i)
		s.AddRelation(name, "a", "b", "c")
		theta = append(theta, relational.Key{Rel: name, Attrs: []string{"a"}})
	}
	phi := relational.Key{Rel: "R0", Attrs: []string{"b"}}
	for i := 0; i < b.N; i++ {
		if _, err := reduction.RelationalToXML(s, theta, phi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUndecidableImplicationReduction measures the Lemma 3.3 gadget.
func BenchmarkUndecidableImplicationReduction(b *testing.B) {
	d := randgen.TeacherFamily(4)
	sigma := randgen.TeacherFamilyConstraints(4, true)
	for i := 0; i < b.N; i++ {
		if _, err := reduction.ConsistencyToKeyImplication(d, sigma); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Supporting measurements ------------------------------------------

// BenchmarkEncodingCost measures building Ψ(D,Σ) alone — the paper bounds
// it by O(s²·log s) (Theorem 4.1).
func BenchmarkEncodingCost(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		d := randgen.ChainDTD(n)
		set := randgen.KeySetOver(d)
		b.Run(fmt.Sprintf("size-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simp := dtd.Simplify(d)
				enc, err := encodeAll(simp, set)
				if err != nil {
					b.Fatal(err)
				}
				_ = enc
			}
		})
	}
}

// BenchmarkWitnessConstruction measures the constructive half: solution →
// verified document (Lemmas 4.4/4.5 plus de-simplification).
func BenchmarkWitnessConstruction(b *testing.B) {
	d := randgen.TeacherFamily(2)
	set := randgen.TeacherFamilyConstraints(2, false)
	for i := 0; i < b.N; i++ {
		res, err := consistentOnce(d, set, nil)
		if err != nil || res.Witness == nil {
			b.Fatalf("expected witness: %v %v", res, err)
		}
	}
}

// ---- The compiled Spec engine ------------------------------------------

// BenchmarkSpecCompile measures the one-off per-DTD cost the Spec API
// front-loads: validation, simplification and the encoding template.
func BenchmarkSpecCompile(b *testing.B) {
	d := randgen.WideDTD(4)
	set := constraint.MustParse("s0.id -> s0\ns0.id <= s1.id")
	for i := 0; i < b.N; i++ {
		if _, err := Compile(d, set...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecServe measures the amortised serving path of Corollary
// 4.11: one compiled Spec answering many consistency requests, the
// workload the API is designed around.
func BenchmarkSpecServe(b *testing.B) {
	d := randgen.WideDTD(4)
	spec, err := Compile(d)
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.WithSolveOptions(WithSkipWitness())
	rng := rand.New(rand.NewSource(3))
	sets := make([][]Constraint, 64)
	for i := range sets {
		sets[i] = randgen.RandUnarySet(rng, d, randgen.SetSpec{Keys: 2, ForeignKeys: 1, Inclusions: 1})
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.ConsistentWith(ctx, sets[i%len(sets)]...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecConsistentAll measures batch serving on the bounded worker
// pool against the same workload checked one at a time.
func BenchmarkSpecConsistentAll(b *testing.B) {
	d := randgen.WideDTD(4)
	spec, err := Compile(d)
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.WithSolveOptions(WithSkipWitness())
	rng := rand.New(rand.NewSource(3))
	sets := make([][]Constraint, 64)
	for i := range sets {
		sets[i] = randgen.RandUnarySet(rng, d, randgen.SetSpec{Keys: 2, ForeignKeys: 1, Inclusions: 1})
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ans := range spec.ConsistentAll(ctx, sets) {
			if ans.Err != nil {
				b.Fatal(ans.Err)
			}
		}
	}
}

// BenchmarkLIPGadgetConsistency drives random Theorem 4.7 gadgets through
// the full NP pipeline.
func BenchmarkLIPGadgetConsistency(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := randgen.RandLIP01(rng, 3, 4, 50)
	spec, err := reduction.LIPToSpec(a)
	if err != nil {
		b.Fatal(err)
	}
	opt := &core.Options{SkipWitness: true}
	for i := 0; i < b.N; i++ {
		if _, err := consistentOnce(spec.DTD, spec.Sigma, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationalVsXMLImplication contrasts the relational world —
// where unary key+inclusion implication is linear (Cosmadakis et al.) —
// with the XML world, where the same question is coNP-complete because the
// DTD participates. Here the DTD's cardinality structure flips the answer:
// structurally at most one 'a' exists, so a.x → a is implied by nothing.
func BenchmarkRelationalVsXMLImplication(b *testing.B) {
	d := dtd.MustParse(`
<!ELEMENT r (a?, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	phi := constraint.UnaryKey("a", "x")
	opt := &core.Options{SkipWitness: true}
	for i := 0; i < b.N; i++ {
		imp, err := impliesOnce(d, nil, phi, opt)
		if err != nil || !imp.Implied {
			b.Fatalf("structural implication must hold: %v %v", imp, err)
		}
	}
}

// ---- Streaming validation (the large-document serving workload) --------

// streamDocCache holds generated benchmark documents by node count, so the
// generator runs once per size per test binary.
var streamDocCache = map[int][]byte{}

func streamDoc(tb testing.TB, nodes int) []byte {
	if doc, ok := streamDocCache[nodes]; ok {
		return doc
	}
	doc := genDoc(tb, streamBenchDTD, nodes, 0, 42)
	streamDocCache[nodes] = doc
	return doc
}

func streamBenchSizes() []int {
	if testing.Short() {
		return []int{100_000}
	}
	return []int{100_000, 1_000_000}
}

// BenchmarkValidateTree is the materializing baseline: parse the whole
// document into an xmltree.Tree, then validate DTD conformance and
// constraints over it. Allocation grows with the document.
func BenchmarkValidateTree(b *testing.B) {
	spec := compileStream(b, streamBenchDTD, streamBenchXIC)
	for _, n := range streamBenchSizes() {
		doc := streamDoc(b, n)
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				tree, err := ParseDocument(bytes.NewReader(doc))
				if err != nil {
					b.Fatal(err)
				}
				if err := spec.Validate(context.Background(), tree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidateStream is the single-pass path: same verdict, memory
// bounded by the constraint indexes.
func BenchmarkValidateStream(b *testing.B) {
	spec := compileStream(b, streamBenchDTD, streamBenchXIC)
	ctx := context.Background()
	for _, n := range streamBenchSizes() {
		doc := streamDoc(b, n)
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				rep, err := spec.ValidateStream(ctx, bytes.NewReader(doc))
				if err != nil {
					b.Fatal(err)
				}
				if !rep.OK() {
					b.Fatal(rep.Err())
				}
			}
		})
	}
}

// measureValidation runs f once, sampling live heap throughout; f returns
// its own HeapAlloc snapshot taken while its results are still referenced,
// so the peak cannot miss the fully-built tree. The returned peak is
// relative to the post-GC baseline.
func measureValidation(f func() uint64) (peakBytes uint64, elapsed time.Duration) {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base := m0.HeapAlloc
	stop := make(chan struct{})
	done := make(chan struct{})
	var sampled uint64
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > sampled {
					sampled = m.HeapAlloc
				}
			}
		}
	}()
	start := time.Now()
	final := f()
	elapsed = time.Since(start)
	close(stop)
	<-done
	peak := sampled
	if final > peak {
		peak = final
	}
	if peak <= base {
		return 0, elapsed
	}
	return peak - base, elapsed
}

func heapNow() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestWriteValidateBench records the tree-vs-stream memory comparison to
// the JSON file named by XIC_BENCH_OUT (skipped otherwise; CI sets it to
// BENCH_validate.json). It asserts the acceptance bound: peak allocation
// of streaming validation at least 5× below the tree-building baseline.
func TestWriteValidateBench(t *testing.T) {
	out := os.Getenv("XIC_BENCH_OUT")
	if out == "" {
		t.Skip("set XIC_BENCH_OUT=BENCH_validate.json to record the streaming-validation benchmark")
	}
	spec := compileStream(t, streamBenchDTD, streamBenchXIC)
	ctx := context.Background()
	type record struct {
		Nodes           int     `json:"nodes"`
		DocBytes        int     `json:"doc_bytes"`
		TreePeakBytes   uint64  `json:"tree_peak_bytes"`
		StreamPeakBytes uint64  `json:"stream_peak_bytes"`
		PeakRatio       float64 `json:"peak_ratio"`
		TreeMs          float64 `json:"tree_ms"`
		StreamMs        float64 `json:"stream_ms"`
	}
	var records []record
	for _, n := range streamBenchSizes() {
		doc := streamDoc(t, n)
		treePeak, treeDur := measureValidation(func() uint64 {
			tree, err := ParseDocument(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.Validate(context.Background(), tree); err != nil {
				t.Fatal(err)
			}
			final := heapNow()
			runtime.KeepAlive(tree)
			return final
		})
		streamPeak, streamDur := measureValidation(func() uint64 {
			rep, err := spec.ValidateStream(ctx, bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatal(rep.Err())
			}
			final := heapNow()
			runtime.KeepAlive(rep)
			return final
		})
		if streamPeak == 0 {
			streamPeak = 1
		}
		ratio := float64(treePeak) / float64(streamPeak)
		t.Logf("nodes=%d doc=%dMB tree: peak=%dMB %v  stream: peak=%dMB %v  ratio=%.1fx",
			n, len(doc)>>20, treePeak>>20, treeDur, streamPeak>>20, streamDur, ratio)
		if ratio < 5 {
			t.Errorf("nodes=%d: stream peak %d not 5x below tree peak %d (ratio %.1f)", n, streamPeak, treePeak, ratio)
		}
		records = append(records, record{
			Nodes: n, DocBytes: len(doc),
			TreePeakBytes: treePeak, StreamPeakBytes: streamPeak, PeakRatio: ratio,
			TreeMs:   float64(treeDur.Microseconds()) / 1000,
			StreamMs: float64(streamDur.Microseconds()) / 1000,
		})
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ---- The ILP presolve + fast-path layer --------------------------------

// The corpus, options and timing discipline live in internal/solvebench —
// the single source of truth shared with cmd/xicbench — so the published
// ablation table and the CI-gated BENCH_solve.json can never drift apart.

// BenchmarkSolve measures the consistency decision per corpus case with
// the accelerated pipeline — presolve, root cuts, int64 fast tableau —
// on ("presolve", the historical series name) and off ("raw"): the ratio
// between the two series is the stack's wall-time win on the serving path.
func BenchmarkSolve(b *testing.B) {
	corpus, err := solvebench.Corpus(false)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"presolve", "raw"} {
		opt := solvebench.Options(mode == "presolve")
		for _, c := range corpus {
			b.Run(mode+"/"+c.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := c.Run(context.Background(), opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// solveRecord mirrors one entry of BENCH_solve.json (see cmd/benchdiff
// -kind solve).
type solveRecord struct {
	Case          string  `json:"case"`
	RawMs         float64 `json:"raw_ms"`
	PresolveMs    float64 `json:"presolve_ms"`
	Speedup       float64 `json:"speedup"`
	RawNodes      uint64  `json:"raw_nodes"`
	PresolveNodes uint64  `json:"presolve_nodes"`
	VarsFixed     uint64  `json:"vars_fixed"`
}

// TestWriteSolveBench records the accelerated-vs-raw solver comparison to
// the JSON file named by XIC_SOLVE_BENCH_OUT (skipped otherwise; CI sets
// it to BENCH_solve.json). The accelerated side is the serving pipeline —
// presolve, root cuts and the int64 fast tableau — and the raw side turns
// all of it off. It asserts the acceptance bound: total accelerated wall
// time at most 0.5× the raw solver (an aggregate ≥2x speedup) on the
// committed corpus, with identical verdicts case by case.
func TestWriteSolveBench(t *testing.T) {
	out := os.Getenv("XIC_SOLVE_BENCH_OUT")
	if out == "" {
		t.Skip("set XIC_SOLVE_BENCH_OUT=BENCH_solve.json to record the solver benchmark")
	}
	corpus, err := solvebench.Corpus(false)
	if err != nil {
		t.Fatal(err)
	}
	var records []solveRecord
	var totalRaw, totalPre time.Duration
	for _, c := range corpus {
		run := func(presolveOn bool) bool {
			verdict, err := c.Run(context.Background(), solvebench.Options(presolveOn))
			if err != nil {
				t.Fatal(err)
			}
			return verdict
		}
		if on, off := run(true), run(false); on != off {
			t.Fatalf("%s: verdict differs with presolve: on=%v off=%v", c.Name, on, off)
		}
		preStats1 := c.Checker.SolveStats()
		preDur := solvebench.BestOf(func() { run(true) })
		midStats := c.Checker.SolveStats()
		rawDur := solvebench.BestOf(func() { run(false) })
		endStats := c.Checker.SolveStats()
		totalPre += preDur
		totalRaw += rawDur
		rec := solveRecord{
			Case:       c.Name,
			RawMs:      float64(rawDur.Microseconds()) / 1000,
			PresolveMs: float64(preDur.Microseconds()) / 1000,
			// Per-solve counts from the counter deltas (BestOf runs the
			// decision solvebench.Runs times per side).
			PresolveNodes: (midStats.Nodes - preStats1.Nodes) / solvebench.Runs,
			RawNodes:      (endStats.Nodes - midStats.Nodes) / solvebench.Runs,
			VarsFixed:     (midStats.VarsFixed - preStats1.VarsFixed) / solvebench.Runs,
		}
		if rec.PresolveMs > 0 {
			rec.Speedup = rec.RawMs / rec.PresolveMs
		}
		records = append(records, rec)
		t.Logf("%-24s presolve %8.2fms (%d nodes, %d vars fixed)  raw %8.2fms (%d nodes)  speedup %.2fx",
			rec.Case, rec.PresolveMs, rec.PresolveNodes, rec.VarsFixed, rec.RawMs, rec.RawNodes, rec.Speedup)
	}
	ratio := float64(totalPre) / float64(totalRaw)
	t.Logf("TOTAL accelerated %v, raw %v, ratio %.3f", totalPre, totalRaw, ratio)
	if ratio > 0.5 {
		t.Errorf("accelerated wall time is %.2fx the raw solver on the corpus; the acceptance bound is 0.50x (≥2x aggregate speedup)", ratio)
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
