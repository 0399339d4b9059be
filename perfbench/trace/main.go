// Command trace is the xicd benchmark's traced run. It replays the same
// seeded inputs as the end-to-end run, in process and on one goroutine,
// through each layer's public entry points, wrapping every call in a span;
// the per-layer metrics are derived from the spans and from the counts the
// calls return. It prints one JSON line: the metrics of the layers the
// workload keeps busy (the load generator prints 0 for the others), the
// number of replayed requests and of failed checks, and (decide) every
// verdict.
//
// It is the only part of the benchmark that links the program's code.
// The entry points it wraps — the whole surface a change to an internal
// signature can break — are:
//
//	xic: CompileDTD, Schema.Bind, Spec.WithSolveOptions, Spec.ConsistentWith,
//	     Spec.Implies, Spec.ValidateStream, Spec.OpenSession, Session.Apply,
//	     Session.Document
//	internal/constraint: Parse, ParseOne, ClassOf
//	internal/dtd: Parse, Simplify, DTD.HasValidTree, Automaton.Start,
//	     Run.Reset, Run.Step, Run.Accepting
//	internal/cardinality: EncodeDTD, Encoding.Clone, Encoding.AddFull,
//	     Encoding.AddUnary
//	internal/presolve: Run
//	internal/ilp: Solve
//	internal/witness: Build
//	internal/xmltree: NewValidator, Validator.CompileAll, Validator.Automaton,
//	     Parse, Tree.Walk, Tree.Size
//	internal/doccheck: New, Checker.RunRetain, NewKeyIndex, KeyIndex.Add,
//	     NewInclusionIndex, InclusionIndex.AddChild, InclusionIndex.AddParent
//
//	trace -workload decide|ingest|edit -seed N [-spans FILE]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "decide, ingest or edit")
	seed := flag.Uint64("seed", 1, "input seed")
	spansFile := flag.String("spans", "", "write every span to this file as JSON lines")
	flag.Parse()
	tr := newTracer()
	out := &output{Metrics: map[string]float64{}}
	var err error
	switch *workload {
	case "decide":
		err = replayDecide(tr, *seed, out)
	case "ingest":
		err = replayIngest(tr, *seed, out)
	case "edit":
		err = replayEdit(tr, *seed, out)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err == nil && *spansFile != "" {
		err = tr.write(*spansFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// output is the traced run's result line.
type output struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Verdicts  map[int]bool       `json:"verdicts,omitempty"`
}

func (o *output) fail(format string, args ...any) {
	o.Failed++
	fmt.Fprintf(os.Stderr, "trace: "+format+"\n", args...)
}

// span is one timed layer call. Spans of one request share req; parent is
// the enclosing span's index, -1 at the top.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, req int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id (the innermost open one) and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].End - t.spans[id].Start
}

// write writes every span to path, one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, req int, f func()) time.Duration {
	id := t.begin(name, req)
	f()
	return t.end(id)
}

// pct is the q-quantile of ds, interpolated between closest ranks.
func pct(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
