// Benchmarks for incremental revalidation, in the external test package
// so they can share internal/editbench — the constructed corpus behind
// BENCH_edit.json and the CI edit gate — with cmd/benchdiff -kind edit.
package xic_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"xic"
	"xic/internal/editbench"
)

func editSpec(tb testing.TB) *xic.Spec {
	tb.Helper()
	spec, err := xic.CompileStrings(editbench.DTDSrc, editbench.ConsSrc)
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// BenchmarkSessionEdit measures steady-state per-edit cost through an open
// session on the 1e5-element corpus case: point edits, and structural
// edits in the middle of the root's 4000 children. An op is one pass
// over the sub-benchmark's edit cycle; ns/edit divides it among the
// edits.
func BenchmarkSessionEdit(b *testing.B) {
	spec := editSpec(b)
	c := editbench.DefaultCorpus()[2]
	sess, err := spec.OpenSession(context.Background(), strings.NewReader(c.Document()))
	if err != nil {
		b.Fatal(err)
	}
	// Each iteration applies the whole cycle, which leaves the document
	// as it found it.
	run := func(b *testing.B, cycle []xic.EditOp) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k, op := range cycle {
				if res := sess.Apply(op); res.Rejected != nil {
					b.Fatalf("op %d rejected: %+v", k, res.Rejected)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cycle)), "ns/edit")
	}
	// A steady-state mix: a ref retargeted between two live groups, an
	// item's text toggled, and a never-referenced group renamed back and
	// forth.
	b.Run("point", func(b *testing.B) {
		run(b, []xic.EditOp{
			xic.SetAttr("lib/ref[0]", "to", "g1"),
			xic.SetText("lib/grp[0]/item[0]", "pong"),
			xic.SetAttr("lib/grp[2399]", "id", "spare-a"),
			xic.SetAttr("lib/ref[0]", "to", "g2"),
			xic.SetText("lib/grp[0]/item[0]", "ping"),
			xic.SetAttr("lib/grp[2399]", "id", "spare-b"),
		})
	})
	// A fresh group inserted among the groups and deleted again.
	mid := c.Groups / 2
	b.Run("structural", func(b *testing.B) {
		run(b, []xic.EditOp{
			xic.InsertSubtree("lib", mid, `<grp id="bench-mid" tag="t0"><item>x</item></grp>`),
			xic.DeleteSubtree(fmt.Sprintf("lib/grp[%d]", mid)),
		})
	})
}

// TestWriteEditBench records the session-vs-restream comparison to the
// JSON file named by XIC_EDIT_BENCH_OUT (skipped otherwise; CI sets it to
// BENCH_edit.json). It asserts the acceptance bound of the session
// subsystem: applying a point-edit script through a session at least 10x
// faster than naively editing and re-streaming the whole document, in
// aggregate over the corpus. The real gap is orders of magnitude —
// O(edit) against O(document) per edit.
func TestWriteEditBench(t *testing.T) {
	out := os.Getenv("XIC_EDIT_BENCH_OUT")
	if out == "" {
		t.Skip("set XIC_EDIT_BENCH_OUT=BENCH_edit.json to record the edit benchmark")
	}
	spec := editSpec(t)
	ctx := context.Background()
	var records []editbench.Result
	var totalSession, totalRestream float64
	for _, c := range editbench.DefaultCorpus() {
		res, err := editbench.Run(ctx, spec, c)
		if err != nil {
			t.Fatal(err)
		}
		totalSession += res.SessionMs
		totalRestream += res.RestreamMs
		records = append(records, res)
		t.Logf("%-10s nodes %6d  session %8.3fms (%6.1fµs/op)  restream %9.1fms  speedup %.0fx",
			res.Case, res.Nodes, res.SessionMs, res.SessionUsPer, res.RestreamMs, res.Speedup)
	}
	ratio := 0.0
	if totalSession > 0 {
		ratio = totalRestream / totalSession
	}
	t.Logf("TOTAL session %.1f ms, restream %.1f ms, speedup %.0fx", totalSession, totalRestream, ratio)
	if ratio < 10 {
		t.Errorf("session edits only %.1fx faster than edit-and-restream on the corpus; the acceptance bound is 10x", ratio)
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
