// Command load is the xicd benchmark's end-to-end driver. It starts a
// freshly built xicd on loopback with default flags, drives one seeded
// workload over HTTP as a closed loop of two clients (each on its own
// keep-alive connection), checks every answer, and prints one JSON result
// line. With -trace 1 it also runs the traced in-process replay and prints
// the per-layer metrics instead.
//
// It links no code of the program under test: it depends only on the
// xicd binary and its HTTP API. It runs from the repository root, where it
// reads the metrics to print, and their units, from BENCHMARK.json.
//
//	load -xicd BIN [-tracer BIN -spans FILE] -workload decide|ingest|edit -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// clients is the closed loop's width: one client per core of the
// two-core machine the benchmark is sized for.
const clients = 2

// warmup is traffic sent before the timed phase, checked but not timed:
// it lets the garbage of setup (two parsed 1e5-element documents on edit)
// be collected and the connections settle before anything is measured.
const warmup = 2 * time.Second

func main() {
	xicdBin := flag.String("xicd", "", "path to the xicd binary")
	tracerBin := flag.String("tracer", "", "path to the traced-run binary (needed with -trace 1)")
	workload := flag.String("workload", "", "decide, ingest or edit")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	spans := flag.String("spans", "", "file the traced run writes its spans to")
	flag.Parse()
	if err := run(*xicdBin, *tracerBin, *spans, *workload, uint64(*seed), time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(xicdBin, tracerBin, spans, name string, seed uint64, dur time.Duration, traced bool) error {
	if xicdBin == "" {
		return errors.New("missing -xicd")
	}
	if traced && tracerBin == "" {
		return errors.New("-trace 1 needs -tracer")
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}

	var setupTimes []float64
	var srv *server
	setups := w.shape().setups
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, err := startServer(xicdBin)
		if err != nil {
			return err
		}
		if err := w.setup(s); err != nil {
			s.stop()
			return fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := s.stop(); err != nil {
				return err
			}
			continue
		}
		srv = s
	}
	defer srv.stop()

	rec := merge(srv.drive(w, dur))
	vars, err := srv.vars()
	if err != nil {
		return err
	}
	rec.checkVars(srv, vars)
	rss, err := srv.peakRSS()
	if err != nil {
		return err
	}
	w.finish(srv.newClient(), rec)

	var floor []float64
	if traced {
		floor = srv.floor()
	}
	if err := srv.stop(); err != nil {
		return err
	}
	for i, msg := range rec.errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "load: ... %d more failures\n", len(rec.errs)-5)
			break
		}
		fmt.Fprintln(os.Stderr, "load: failure:", msg)
	}

	var out result
	if !traced {
		vals := endToEnd(rec, dur.Seconds(), w.shape())
		vals["setup_s"] = median(setupTimes)
		vals["peak_rss_mb"] = rss
		out.Metrics, err = assemble(decl.EndToEnd, vals, false)
	} else {
		var tr *traceResult
		if tr, err = runTracer(tracerBin, spans, name, seed); err != nil {
			return err
		}
		rec.attempted += tr.Attempted
		rec.failed += tr.Failed
		rec.failed += w.compareTrace(tr)
		out.Metrics, err = assemble(decl.PerLayer, layerMetrics(name, rec, vars, tr, floor), true)
	}
	if err != nil {
		return err
	}
	out.Attempted, out.Failed = rec.attempted, rec.failed
	out.Correct = rec.failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// decl is one metric BENCHMARK.json declares.
type decl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared is the part of BENCHMARK.json the driver reads: the metrics it
// prints, with their units.
type declared struct {
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func readDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// assemble gives every declared metric its value and unit. A computed
// value that is not declared is an error, and so is a declared metric
// without a value, unless idle is set: then it reads 0, a layer the
// workload does not use.
func assemble(decls []decl, vals map[string]float64, idle bool) (map[string]metric, error) {
	out := map[string]metric{}
	for _, d := range decls {
		v, ok := vals[d.Name]
		if !ok && !idle {
			return nil, fmt.Errorf("no value for metric %s", d.Name)
		}
		out[d.Name] = metric{v, d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
