package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// root is the repository root, two levels above this package.
var root = filepath.Join("..", "..")

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// runBench runs one short benchmark run from the repository root and
// returns its result line.
func runBench(t *testing.T, workload, trace string) *result {
	t.Helper()
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload, "--seed", "5", "--seconds", "2", "--trace", trace)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace %s: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d", workload, trace, r.Correct, r.Failed, r.Attempted)
	}
	return &r
}

// counts are the traced run's count metrics, which must repeat exactly.
var counts = []string{
	"cardinality.vars", "cardinality.rows",
	"presolve.decided_frac", "presolve.rows_out_frac", "presolve.cuts_per_solve",
	"ilp.nodes_mean", "ilp.nodes_max", "ilp.multi_node_frac", "ilp.fastpath_frac",
	"simplex.pivots_per_solve", "simplex.fast_pivot_frac", "simplex.fallbacks",
	"witness.nodes", "dtd.steps_per_mb", "doccheck.tuples_per_mb",
}

// layer groups that must be busy on exactly the named workload.
var busyOn = map[string][]string{
	"decide": {"cardinality.clone_us", "presolve.ms", "ilp.search_ms", "simplex.pivots_per_solve", "witness.us", "xic.consistent_ms"},
	"ingest": {"xic.validate_ms", "doccheck.rest_ms_per_mb"},
	"edit":   {"xic.apply_us", "docsession.setattr_near_us", "docsession.insert_us"},
}

// TestShortRuns is the benchmark's self-test: a short run of each workload
// prints every end-to-end metric with its unit and no failures, and two
// traced runs print every per-layer metric with identical counts, with
// each layer busy only where it should be.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds xicd and runs every workload")
	}
	b := readBenchmark(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r := runBench(t, w.Name, "0")
			for _, m := range b.EndToEnd {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			first, second := runBench(t, w.Name, "1"), runBench(t, w.Name, "1")
			for _, m := range b.PerLayer {
				if got, ok := first.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range counts {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("count %s differs between traced runs: %v vs %v", name, a, b)
				}
			}
			for owner, names := range busyOn {
				for _, name := range names {
					if v := first.Metrics[name].Value; (v != 0) != (owner == w.Name) {
						t.Errorf("%s = %v on %s; it should be busy on %s only", name, v, w.Name, owner)
					}
				}
			}
			switch w.Name {
			case "decide":
				if first.Metrics["ilp.multi_node_frac"].Value == 0 {
					t.Error("no decide request needed more than one branch-and-bound node")
				}
			case "edit":
				if near, far := first.Metrics["docsession.setattr_near_us"].Value, first.Metrics["docsession.setattr_far_us"].Value; far <= near {
					t.Errorf("setattr on far siblings (%v us) is not slower than on near ones (%v us)", far, near)
				}
			}
		})
	}
}
