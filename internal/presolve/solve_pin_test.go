// External-package test: pins ilp.Solve's output on the presolve pin
// corpus (ilp imports presolve, so this lives in presolve_test like the
// fuzzer).
package presolve_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"xic/internal/ilp"
	"xic/internal/presolve"
)

// solvePinBudgets are the node budgets each pinned system is solved
// under. Every system the search decides within 8 nodes is pinned in full
// at the first budget (the rest pin the node-limit path at 8); the second
// holds the node-limit path of the whole corpus.
var solvePinBudgets = []int{8, 2}

// solveHash digests what ilp.Solve reports about one search: the verdict,
// node and pivot counts, kernel fallbacks, the fast-path flag, the
// witness values and the error.
func solveHash(res *ilp.Result, err error) string {
	h := sha256.New()
	fmt.Fprintf(h, "feasible=%v nodes=%d\n", res.Feasible, res.Nodes)
	fmt.Fprintf(h, "pivots=%d fast=%d fallbacks=%d fastpath=%v\n",
		res.Stats.Pivots, res.Stats.FastPivots, res.Stats.ExactFallbacks, res.Stats.FastPath)
	fmt.Fprintf(h, "values=%s\n", presolve.BigList(res.Values))
	fmt.Fprintf(h, "err=%v\n", err)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSolvedSystemsPinned holds the search's output fixed: every pinned
// system, solved with default options under each budget of
// solvePinBudgets, must hash to its entry in testdata/solved.txt. A
// mismatch means the search visited nodes in another order, pivoted
// differently or returned another witness. After an intended change,
// replace the file with the list the failure logs.
func TestSolvedSystemsPinned(t *testing.T) {
	want := presolve.ReadPins(t, "testdata/solved.txt")
	var got strings.Builder
	bad := 0
	for _, in := range presolve.PinnedSystems(t) {
		for _, budget := range solvePinBudgets {
			res, err := ilp.Solve(context.Background(), in.Sys, &ilp.Options{MaxNodes: budget})
			name := fmt.Sprintf("%s/%d", in.Name, budget)
			h := solveHash(res, err)
			fmt.Fprintf(&got, "%s %s\n", name, h)
			if w, ok := want[name]; !ok || w != h {
				bad++
				if bad <= 20 {
					t.Errorf("%s: search result hash %s (feasible=%v nodes=%d err=%v), pinned %q",
						name, h, res.Feasible, res.Nodes, err, w)
				}
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of the pinned results changed; the current list is:\n%s", bad, got.String())
	}
}
