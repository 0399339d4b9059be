package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// traceResult is the traced run's output line.
type traceResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Verdicts are the decide replay's consistency verdicts, by request.
	Verdicts map[int]bool `json:"verdicts"`
}

// runTracer runs the traced in-process replay of the same seeded inputs
// and reads its result line.
func runTracer(bin, spans, workload string, seed uint64) (*traceResult, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-spans", spans)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var tr traceResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		return nil, fmt.Errorf("traced run output: %w", err)
	}
	return &tr, nil
}

// layerMetrics computes the per-layer metrics: the traced run's, the
// serving overheads (the end-to-end p50 minus the traced in-process p50
// of the same requests) and the registry counters from /debug/vars.
func layerMetrics(name string, rec *recorder, v *debugVars, tr *traceResult, floor []float64) map[string]float64 {
	vals := map[string]float64{}
	for k, x := range tr.Metrics {
		vals[k] = x
	}
	vals["xicd.floor_us"] = median(floor)
	switch name {
	case "decide":
		vals["xicd.implies_overhead_us"] = 1000*latencyQ(rec.samples("implies"), 0.5) - tr.Metrics["xic.implies_hit_us"]
	case "edit":
		vals["xicd.edit_overhead_us"] = 1000*latencyQ(rec.samples("point", "structural", "reject"), 0.5) - tr.Metrics["xic.apply_us"]
	case "ingest":
		vals["xicd.validate_overhead_ms"] = latencyQ(rec.samples("validate"), 0.5) - tr.Metrics["xic.validate_ms"]
	}
	specs, schemas := v.Cache.Tiers["specs"], v.Cache.Tiers["schemas"]
	vals["registry.spec_hits"] = float64(specs.Hits)
	vals["registry.spec_misses"] = float64(specs.Misses)
	vals["registry.evictions"] = float64(specs.Evictions + schemas.Evictions)
	if n := v.ImplCache.Hits + v.ImplCache.Misses; n > 0 {
		vals["registry.impl_cache_hit_frac"] = float64(v.ImplCache.Hits) / float64(n)
	}
	vals["registry.session_evictions"] = float64(v.Sessions.EvictionsLRU + v.Sessions.EvictionsTTL)
	return vals
}
