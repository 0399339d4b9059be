package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"xic"
	"xic/internal/constraint"
	"xic/internal/registry"
)

// config tunes one server instance.
type config struct {
	// MaxSpecs bounds the spec registry (< 1 = registry.DefaultMaxSpecs).
	MaxSpecs int
	// DefaultTimeout bounds every request's work when the request itself
	// asks for nothing tighter; 0 means no server-imposed bound.
	DefaultTimeout time.Duration
	// MaxBody bounds the JSON bodies of the compile and decision endpoints
	// (0 = DefaultMaxBody). Oversized bodies get 413.
	MaxBody int64
	// MaxDoc bounds the XML body of the validate endpoint; 0 means
	// unlimited, because streaming validation is built for documents far
	// larger than memory.
	MaxDoc int64
	// MaxSessions bounds the live document sessions
	// (< 1 = registry.DefaultMaxSessions).
	MaxSessions int
	// SessionTTL is the idle lifetime of a document session
	// (<= 0 = registry.DefaultSessionTTL).
	SessionTTL time.Duration
}

// DefaultMaxBody is the JSON body bound when the flag is unset: real DTDs
// and constraint sets are kilobytes, so 4 MiB is generous while still
// refusing a mistakenly-posted document dump.
const DefaultMaxBody = 4 << 20

// server is the xicd HTTP engine: a spec registry plus handlers. All state
// is concurrency-safe; one server serves any number of connections.
type server struct {
	reg      *registry.Registry
	sessions *registry.SessionStore
	cfg      config

	vars     *expvar.Map
	inflight *expvar.Int
	requests *expvar.Map // per-endpoint request counts
	statuses *expvar.Map // per-status response counts
	panics   *expvar.Map // per-endpoint recovered handler panics
	elements *expvar.Int // total elements seen by streaming validation
}

func newServer(cfg config) *server {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	s := &server{
		reg:      registry.New(cfg.MaxSpecs),
		sessions: registry.NewSessionStore(cfg.MaxSessions, cfg.SessionTTL),
		cfg:      cfg,
		vars:     new(expvar.Map).Init(),
		inflight: new(expvar.Int),
		requests: new(expvar.Map).Init(),
		statuses: new(expvar.Map).Init(),
		panics:   new(expvar.Map).Init(),
		elements: new(expvar.Int),
	}
	s.vars.Set("requests_inflight", s.inflight)
	s.vars.Set("requests_total", s.requests)
	s.vars.Set("responses_by_status", s.statuses)
	s.vars.Set("panics", s.panics)
	s.vars.Set("validate_elements_total", s.elements)
	// The two-level cache, one counter block per tier: the schema tier
	// amortises the heavy per-DTD compilation, the spec tier the cheap
	// per-constraint-set bind. A spec miss whose schema tier hits is the
	// serving sweet spot — bind-only work.
	s.vars.Set("cache", expvar.Func(func() any {
		st := s.reg.Stats()
		tier := func(t registry.TierStats) map[string]any {
			return map[string]any{
				"size":          t.Size,
				"hits":          t.Hits,
				"misses":        t.Misses,
				"evictions":     t.Evictions,
				"errors":        t.Errors,
				"work_ms_total": float64(t.Time.Microseconds()) / 1000,
			}
		}
		return map[string]any{
			"tiers": map[string]any{
				"schemas": tier(st.Schemas),
				"specs":   tier(st.SpecTier),
			},
			// Legacy roll-up, kept (types included) for dashboards
			// predating the two tiers.
			"specs":            st.Specs,
			"hits":             st.Hits,
			"misses":           st.Misses,
			"evictions":        st.Evictions,
			"compile_errors":   st.CompileErrors,
			"compile_ms_total": float64(st.CompileTime.Microseconds()) / 1000,
		}
	}))
	// Every cached spec with its two-part fingerprint, most recently used
	// first: the schema_id half is the handle for bind-by-fingerprint
	// compiles (POST /v1/specs with "dtd_id").
	s.vars.Set("specs", expvar.Func(func() any {
		entries := s.reg.Entries()
		out := make([]map[string]any, 0, len(entries))
		for _, e := range entries {
			out = append(out, map[string]any{
				"id":        e.ID,
				"schema_id": e.SchemaID,
				"class":     e.Spec.Class().String(),
				"bind_ms":   float64(e.BindTime.Microseconds()) / 1000,
			})
		}
		return out
	}))
	// The schema-wide memoized implication caches, summed over the schema
	// tier: hits are implication queries answered without a coNP refutation.
	s.vars.Set("impl_cache", expvar.Func(func() any {
		var total xic.ImplCacheStats
		for _, se := range s.reg.SchemaEntries() {
			st := se.Schema.ImplCacheStats()
			total.Hits += st.Hits
			total.Misses += st.Misses
			total.Entries += st.Entries
		}
		return map[string]any{
			"hits":    total.Hits,
			"misses":  total.Misses,
			"entries": total.Entries,
		}
	}))
	// The solver hit/shrink counters, summed over every Spec the registry
	// has cached, evicted ones included, so no counter goes backwards: how
	// many ILP-oracle calls presolve answered outright, how many it handed
	// to the search unreduced because its int64 arithmetic overflowed
	// (presolve_bailed), how many the no-branching fast path answered, how
	// much the systems shrank before any simplex pivot ran, and how the
	// pivots split between the int64 fast tableau and the exact big.Rat
	// kernel. The nested "options" map states the SolveOptions the server
	// applies when a request carries no overrides (solver_parallelism 0 =
	// one search worker per check).
	s.vars.Set("solve", expvar.Func(func() any {
		total := s.reg.SolveStats()
		return map[string]any{
			"solves":                total.Solves,
			"presolve_decided":      total.PresolveDecided,
			"presolve_bailed":       total.PresolveBailed,
			"fastpath":              total.FastPath,
			"nodes":                 total.Nodes,
			"pivots":                total.Pivots,
			"fast_pivots":           total.FastPivots,
			"exact_fallbacks":       total.ExactFallbacks,
			"steals":                total.Steals,
			"presolve_rows_in":      total.PresolveRows,
			"presolve_rows_out":     total.PresolveRowsOut,
			"vars_fixed":            total.VarsFixed,
			"implications_resolved": total.ImplicationsResolved,
			"options": map[string]any{
				"max_nodes":          xic.DefaultMaxNodes,
				"solver_parallelism": 0,
				"presolve":           true,
				"fast_tableau":       true,
				"skip_witness":       false,
			},
		}
	}))
	// Live document sessions: retained trees with O(edit) revalidation.
	// Size tracks memory pressure (each session holds a parsed document);
	// the eviction counters say whether clients lose sessions to the LRU
	// bound (raise -max-sessions) or to idling out (raise -session-ttl).
	s.vars.Set("sessions", expvar.Func(func() any {
		st := s.sessions.SessionStatsSnapshot()
		return map[string]any{
			"size":          st.Size,
			"opens":         st.Opens,
			"hits":          st.Hits,
			"misses":        st.Misses,
			"evictions_lru": st.EvictionsLRU,
			"evictions_ttl": st.EvictionsTTL,
			"closes":        st.Closes,
		}
	}))
	return s
}

// close releases the server's background resources — today, the session
// store's TTL sweeper.
func (s *server) close() {
	s.sessions.Close()
}

// handler routes the API. Method+pattern routing means a wrong method gets
// 405 from the mux itself.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schemas", s.count("compile_schema", s.handleCompileSchema))
	mux.HandleFunc("GET /v1/schemas/{id}", s.count("schema_meta", s.handleSchemaMeta))
	mux.HandleFunc("POST /v1/specs", s.count("compile", s.handleCompile))
	mux.HandleFunc("GET /v1/specs/{id}", s.count("spec_meta", s.handleSpecMeta))
	mux.HandleFunc("POST /v1/specs/{id}/consistent", s.count("consistent", s.withSpec(s.handleConsistent)))
	mux.HandleFunc("POST /v1/specs/{id}/implies", s.count("implies", s.withSpec(s.handleImplies)))
	mux.HandleFunc("POST /v1/specs/{id}/diagnose", s.count("diagnose", s.withSpec(s.handleDiagnose)))
	mux.HandleFunc("POST /v1/specs/{id}/validate", s.count("validate", s.withSpec(s.handleValidate)))
	mux.HandleFunc("POST /v1/specs/{id}/sessions", s.count("session_open", s.withSpec(s.handleOpenSession)))
	mux.HandleFunc("GET /v1/sessions/{sid}", s.count("session_meta", s.withSession(s.handleSessionMeta)))
	mux.HandleFunc("GET /v1/sessions/{sid}/document", s.count("session_document", s.withSession(s.handleSessionDocument)))
	mux.HandleFunc("POST /v1/sessions/{sid}/edits", s.count("session_edits", s.withSession(s.handleEdits)))
	mux.HandleFunc("DELETE /v1/sessions/{sid}", s.count("session_close", s.handleCloseSession))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"specs":%d}`+"\n", s.reg.Len())
	})
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, s.vars.String())
	})
	return mux
}

// count wraps a handler with the request/inflight counters, and turns a
// handler panic into a logged, counted 500 rather than a dropped
// connection. A panic on a session route also drops the session: its
// indexes may be mid-edit.
func (s *server) count(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(name, 1)
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		sw := &startedWriter{ResponseWriter: w}
		w = sw // handed on as w, so httpguard still sees h write the status
		defer func() {
			if v := recover(); v != nil {
				s.recovered(sw, r, name, v)
			}
		}()
		h(w, r)
	}
}

// recovered handles a panic that escaped the handler of endpoint name.
func (s *server) recovered(w *startedWriter, r *http.Request, name string, v any) {
	if v == http.ErrAbortHandler {
		panic(v) // the handler asked net/http to abort the response
	}
	s.panics.Add(name, 1)
	log.Printf("xicd: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
	sid := r.PathValue("sid")
	if sid != "" {
		s.sessions.Delete(sid)
	}
	if w.started {
		return // the status is on the wire; the response ends where the handler stopped
	}
	msg := "internal error serving " + name
	if sid != "" {
		msg += "; session " + sid + " was closed"
	}
	s.writeStatusError(w, http.StatusInternalServerError, "internal", "%s", msg)
}

// startedWriter records whether a handler has begun its response, so a
// recovered panic knows whether a 500 can still be sent.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (w *startedWriter) WriteHeader(code int) {
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *startedWriter) Write(b []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *startedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// baseWriter returns the writer net/http handed the server, from under
// count's startedWriter: only through it can http.MaxBytesReader mark an
// oversized request's connection for closing.
func baseWriter(w http.ResponseWriter) http.ResponseWriter {
	if sw, ok := w.(*startedWriter); ok {
		return sw.ResponseWriter
	}
	return w
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Status  int    `json:"status"`
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Parse errors carry their position.
	Input  string `json:"input,omitempty"`
	Line   int    `json:"line,omitempty"`
	Offset int    `json:"offset,omitempty"`
	// Spec errors carry their stage.
	Stage string `json:"stage,omitempty"`
}

// errBodyFor classifies err into the wire envelope via the public taxonomy.
func errBodyFor(err error) errorBody {
	b := errorBody{Status: xic.HTTPStatus(err), Message: err.Error(), Kind: "internal"}
	var pe *xic.ParseError
	var se *xic.SpecError
	switch {
	case errors.Is(err, xic.ErrCanceled):
		b.Kind = "canceled"
	case errors.Is(err, xic.ErrUndecidable):
		b.Kind = "undecidable"
	case errors.Is(err, xic.ErrNothingToDiagnose):
		b.Kind = "consistent"
	case errors.As(err, &pe):
		b.Kind = "parse"
		b.Input, b.Line, b.Offset = pe.Input, pe.Line, pe.Offset
	case errors.As(err, &se):
		b.Kind = "spec"
		b.Stage = se.Stage
	}
	return b
}

func (s *server) writeError(w http.ResponseWriter, err error) {
	s.writeErrorBody(w, errBodyFor(err))
}

// writeStatusError reports a request-level failure (bad JSON, unknown id,
// oversized body) that the xic taxonomy does not cover.
func (s *server) writeStatusError(w http.ResponseWriter, status int, kind, format string, args ...any) {
	s.writeErrorBody(w, errorBody{Status: status, Kind: kind, Message: fmt.Sprintf(format, args...)})
}

func (s *server) writeErrorBody(w http.ResponseWriter, b errorBody) {
	s.statuses.Add(strconv.Itoa(b.Status), 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(b.Status)
	json.NewEncoder(w).Encode(map[string]errorBody{"error": b}) //nolint:errcheck // response write failure has no recovery
}

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.statuses.Add(strconv.Itoa(status), 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response write failure has no recovery
}

// requestContext applies the effective deadline: the tighter of the server
// default and the client's ?timeout= (or JSON "timeout") value. The base is
// r.Context(), so a client hanging up mid-solve cancels the ILP search.
func (s *server) requestContext(r *http.Request, bodyTimeout string) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	for _, raw := range []string{r.URL.Query().Get("timeout"), bodyTimeout} {
		if raw == "" {
			continue
		}
		td, err := time.ParseDuration(raw)
		if err != nil || td <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q: want a positive Go duration like 500ms", raw)
		}
		if d == 0 || td < d {
			d = td
		}
	}
	if d == 0 {
		ctx, cancel := context.WithCancel(r.Context())
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// decodeJSON reads a size-bounded JSON body into v. An empty body leaves v
// untouched, so endpoints with all-optional parameters accept bare POSTs.
func (s *server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	body := http.MaxBytesReader(baseWriter(w), r.Body, s.cfg.MaxBody)
	data, err := io.ReadAll(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeStatusError(w, http.StatusRequestEntityTooLarge, "request",
				"request body exceeds %d bytes", mbe.Limit)
		} else {
			s.writeStatusError(w, http.StatusBadRequest, "request", "reading body: %v", err)
		}
		return false
	}
	if len(data) == 0 {
		return true
	}
	if err := json.Unmarshal(data, v); err != nil {
		s.writeStatusError(w, http.StatusBadRequest, "request", "bad JSON body: %v", err)
		return false
	}
	return true
}

// ---- POST /v1/schemas --------------------------------------------------

// compileSchemaRequest registers the heavy, constraint-free half of a
// specification: the DTD alone.
type compileSchemaRequest struct {
	DTD string `json:"dtd"`
}

type compileSchemaResponse struct {
	ID            string  `json:"id"`
	Cached        bool    `json:"cached"`
	DTDConsistent bool    `json:"dtd_consistent"`
	CompileMs     float64 `json:"compile_ms,omitempty"`
}

// handleCompileSchema compiles (or recalls) a Schema so that later
// compiles can bind constraint sets against it by fingerprint, skipping
// DTD compilation entirely — the batch implies/consistent serving shape
// for one stable schema.
func (s *server) handleCompileSchema(w http.ResponseWriter, r *http.Request) {
	var req compileSchemaRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.DTD == "" {
		s.writeStatusError(w, http.StatusBadRequest, "request", `missing "dtd" field`)
		return
	}
	entry, cached, err := s.reg.CompileSchema(req.DTD)
	if err != nil {
		s.writeError(w, err)
		return
	}
	status := http.StatusCreated
	resp := compileSchemaResponse{
		ID:            entry.ID,
		Cached:        cached,
		DTDConsistent: entry.Schema.ConsistentDTD(),
	}
	if cached {
		status = http.StatusOK
	} else {
		resp.CompileMs = float64(entry.CompileTime.Microseconds()) / 1000
	}
	s.writeJSON(w, status, resp)
}

// ---- GET /v1/schemas/{id} ----------------------------------------------

func (s *server) handleSchemaMeta(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	schema, ok := s.reg.GetSchema(id)
	if !ok {
		s.writeStatusError(w, http.StatusNotFound, "request",
			"no schema %q: compile it via POST /v1/schemas (the registry is bounded, so old entries may have been evicted)", id)
		return
	}
	st := schema.ImplCacheStats()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"id":             id,
		"root":           schema.DTD().Root,
		"types":          len(schema.DTD().Types()),
		"dtd_consistent": schema.ConsistentDTD(),
		"impl_cache": map[string]any{
			"hits":    st.Hits,
			"misses":  st.Misses,
			"entries": st.Entries,
		},
	})
}

// ---- POST /v1/specs ----------------------------------------------------

// compileRequest carries either the DTD source or — the bind-by-fingerprint
// form — the id of an already-registered schema, plus the constraint set to
// bind.
type compileRequest struct {
	DTD         string `json:"dtd,omitempty"`
	DTDID       string `json:"dtd_id,omitempty"`
	Constraints string `json:"constraints"`
}

type compileResponse struct {
	ID          string  `json:"id"`
	SchemaID    string  `json:"schema_id"`
	Cached      bool    `json:"cached"`
	Class       string  `json:"class"`
	Constraints int     `json:"constraints"`
	CompileMs   float64 `json:"compile_ms,omitempty"`
	BindMs      float64 `json:"bind_ms,omitempty"`
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req compileRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	var entry *registry.Entry
	var cached bool
	var err error
	switch {
	case req.DTD != "" && req.DTDID != "":
		s.writeStatusError(w, http.StatusBadRequest, "request", `"dtd" and "dtd_id" are mutually exclusive`)
		return
	case req.DTD != "":
		entry, cached, err = s.reg.Compile(req.DTD, req.Constraints)
	case req.DTDID != "":
		entry, cached, err = s.reg.BindByID(req.DTDID, req.Constraints)
		if errors.Is(err, registry.ErrUnknownSchema) {
			s.writeStatusError(w, http.StatusNotFound, "request",
				"no schema %q: compile it via POST /v1/schemas, or resubmit the DTD source", req.DTDID)
			return
		}
	default:
		s.writeStatusError(w, http.StatusBadRequest, "request", `missing "dtd" (or "dtd_id") field`)
		return
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	status := http.StatusCreated
	resp := compileResponse{
		ID:          entry.ID,
		SchemaID:    entry.SchemaID,
		Cached:      cached,
		Class:       entry.Spec.Class().String(),
		Constraints: len(entry.Spec.Constraints()),
	}
	if cached {
		// This request compiled nothing; reporting the original compile's
		// duration here would double-count it in client latency metrics.
		status = http.StatusOK
	} else {
		// CompileMs is the schema compilation this miss had to run (zero on
		// a schema-tier hit: the whole point of binding by fingerprint);
		// BindMs is this entry's own Schema.Bind cost.
		resp.CompileMs = float64(entry.CompileTime.Microseconds()) / 1000
		resp.BindMs = float64(entry.BindTime.Microseconds()) / 1000
	}
	s.writeJSON(w, status, resp)
}

// withSpec resolves the {id} path value against the registry.
func (s *server) withSpec(h func(http.ResponseWriter, *http.Request, *xic.Spec)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spec, ok := s.reg.Get(id)
		if !ok {
			s.writeStatusError(w, http.StatusNotFound, "request",
				"no spec %q: compile it via POST /v1/specs (the registry is bounded, so old entries may have been evicted)", id)
			return
		}
		h(w, r, spec)
	}
}

// ---- GET /v1/specs/{id} ------------------------------------------------

func (s *server) handleSpecMeta(w http.ResponseWriter, r *http.Request) {
	s.withSpec(func(w http.ResponseWriter, r *http.Request, spec *xic.Spec) {
		set := spec.Constraints()
		strs := make([]string, len(set))
		for i, c := range set {
			strs[i] = c.String()
		}
		s.writeJSON(w, http.StatusOK, map[string]any{
			"id":             r.PathValue("id"),
			"class":          spec.Class().String(),
			"constraints":    strs,
			"dtd_consistent": spec.ConsistentDTD(),
		})
	})(w, r)
}

// ---- POST /v1/specs/{id}/consistent ------------------------------------

// consistentRequest tunes one consistency question. With "sets", the
// request is a batch: element i of the response answers Σ ∪ sets[i], all
// sharing the compiled encoding over Spec.ConsistentAll's worker pool.
type consistentRequest struct {
	Extra       []string   `json:"extra,omitempty"`
	Sets        [][]string `json:"sets,omitempty"`
	SkipWitness bool       `json:"skip_witness,omitempty"`
	// SolverParallelism bounds the branch-and-bound workers (and, for
	// "sets" batches, the batch pool) for this request. Absent or 0 keeps
	// the server default; values outside [0, maxSolverParallelism] are a
	// 400.
	SolverParallelism *int `json:"solver_parallelism,omitempty"`
	// FastTableau toggles the int64 fast simplex kernel; absent means on.
	// false forces every LP onto the exact big.Rat kernel.
	FastTableau *bool  `json:"fast_tableau,omitempty"`
	Timeout     string `json:"timeout,omitempty"`
}

// maxSolverParallelism caps per-request solver parallelism: a shared
// daemon must not let one request fan a single NP search out over an
// unbounded goroutine count.
const maxSolverParallelism = 64

// requestSolveOptions translates the wire-level solver knobs into
// SolveOption tweaks, rejecting out-of-range values.
func requestSolveOptions(par *int, fast *bool) ([]xic.SolveOption, error) {
	var opts []xic.SolveOption
	if par != nil {
		if *par < 0 || *par > maxSolverParallelism {
			return nil, fmt.Errorf("solver_parallelism %d out of range [0, %d]", *par, maxSolverParallelism)
		}
		opts = append(opts, xic.WithSolverParallelism(*par))
	}
	if fast != nil && !*fast {
		opts = append(opts, xic.WithoutFastTableau())
	}
	return opts, nil
}

type consistentResult struct {
	Consistent bool       `json:"consistent"`
	Class      string     `json:"class,omitempty"`
	Witness    string     `json:"witness,omitempty"`
	Error      *errorBody `json:"error,omitempty"`
}

func (s *server) handleConsistent(w http.ResponseWriter, r *http.Request, spec *xic.Spec) {
	var req consistentRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel, err := s.requestContext(r, req.Timeout)
	if err != nil {
		s.writeStatusError(w, http.StatusBadRequest, "request", "%v", err)
		return
	}
	defer cancel()
	opts, err := requestSolveOptions(req.SolverParallelism, req.FastTableau)
	if err != nil {
		s.writeStatusError(w, http.StatusBadRequest, "request", "%v", err)
		return
	}
	if req.SkipWitness {
		opts = append(opts, xic.WithSkipWitness())
	}
	if len(opts) > 0 {
		spec = spec.WithSolveOptions(opts...)
	}

	if req.Sets != nil && req.Extra != nil {
		// "extra" looks composable with "sets" but the batch answers
		// Σ ∪ sets[i] only; refuse rather than silently answer the wrong
		// question. Put shared extensions into every set instead.
		s.writeStatusError(w, http.StatusBadRequest, "request",
			`"extra" and "sets" are mutually exclusive; fold shared constraints into each set`)
		return
	}
	if req.Sets != nil {
		sets := make([][]xic.Constraint, len(req.Sets))
		for i, strs := range req.Sets {
			set, err := parseConstraintList(strs)
			if err != nil {
				s.writeStatusError(w, http.StatusBadRequest, "request", "sets[%d]: %v", i, err)
				return
			}
			sets[i] = set
		}
		batch := spec.ConsistentAll(ctx, sets)
		results := make([]consistentResult, len(batch))
		for i, b := range batch {
			results[i] = toConsistentResult(b.Result, b.Err)
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"results": results})
		return
	}

	extra, err := parseConstraintList(req.Extra)
	if err != nil {
		s.writeStatusError(w, http.StatusBadRequest, "request", "extra: %v", err)
		return
	}
	res, err := spec.ConsistentWith(ctx, extra...)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, toConsistentResult(res, nil))
}

func toConsistentResult(res *xic.Result, err error) consistentResult {
	if err != nil {
		b := errBodyFor(err)
		return consistentResult{Error: &b}
	}
	out := consistentResult{Consistent: res.Consistent, Class: res.Class.String()}
	if res.Witness != nil {
		out.Witness = xic.SerializeDocument(res.Witness)
	}
	return out
}

// parseConstraintList parses individual constraint strings.
func parseConstraintList(strs []string) ([]xic.Constraint, error) {
	out := make([]xic.Constraint, len(strs))
	for i, str := range strs {
		c, err := constraint.ParseOne(str)
		if err != nil {
			return nil, fmt.Errorf("constraint %q: %w", str, err)
		}
		out[i] = c
	}
	return out, nil
}

// ---- POST /v1/specs/{id}/implies ---------------------------------------

// impliesRequest asks whether the compiled Σ implies the query constraint;
// "queries" makes it a batch over Spec.ImpliesAll.
type impliesRequest struct {
	Query   string   `json:"query,omitempty"`
	Queries []string `json:"queries,omitempty"`
	// SolverParallelism and FastTableau tune the solver for this request,
	// with the same bounds and semantics as on /consistent.
	SolverParallelism *int   `json:"solver_parallelism,omitempty"`
	FastTableau       *bool  `json:"fast_tableau,omitempty"`
	Timeout           string `json:"timeout,omitempty"`
}

type impliesResult struct {
	Implied        bool       `json:"implied"`
	Counterexample string     `json:"counterexample,omitempty"`
	Error          *errorBody `json:"error,omitempty"`
}

func (s *server) handleImplies(w http.ResponseWriter, r *http.Request, spec *xic.Spec) {
	var req impliesRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel, err := s.requestContext(r, req.Timeout)
	if err != nil {
		s.writeStatusError(w, http.StatusBadRequest, "request", "%v", err)
		return
	}
	defer cancel()
	opts, err := requestSolveOptions(req.SolverParallelism, req.FastTableau)
	if err != nil {
		s.writeStatusError(w, http.StatusBadRequest, "request", "%v", err)
		return
	}
	if len(opts) > 0 {
		spec = spec.WithSolveOptions(opts...)
	}

	if req.Queries != nil {
		phis, err := parseConstraintList(req.Queries)
		if err != nil {
			s.writeStatusError(w, http.StatusBadRequest, "request", "queries: %v", err)
			return
		}
		batch := spec.ImpliesAll(ctx, phis)
		results := make([]impliesResult, len(batch))
		for i, b := range batch {
			results[i] = toImpliesResult(b.Implication, b.Err)
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"results": results})
		return
	}

	if req.Query == "" {
		s.writeStatusError(w, http.StatusBadRequest, "request", `missing "query" (or "queries") field`)
		return
	}
	phi, err := constraint.ParseOne(req.Query)
	if err != nil {
		s.writeStatusError(w, http.StatusBadRequest, "request", "query: %v", err)
		return
	}
	imp, err := spec.Implies(ctx, phi)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, toImpliesResult(imp, nil))
}

func toImpliesResult(imp *xic.Implication, err error) impliesResult {
	if err != nil {
		b := errBodyFor(err)
		return impliesResult{Error: &b}
	}
	out := impliesResult{Implied: imp.Implied}
	if imp.Counterexample != nil {
		out.Counterexample = xic.SerializeDocument(imp.Counterexample)
	}
	return out
}

// ---- POST /v1/specs/{id}/diagnose --------------------------------------

type diagnoseRequest struct {
	Timeout string `json:"timeout,omitempty"`
}

func (s *server) handleDiagnose(w http.ResponseWriter, r *http.Request, spec *xic.Spec) {
	var req diagnoseRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel, err := s.requestContext(r, req.Timeout)
	if err != nil {
		s.writeStatusError(w, http.StatusBadRequest, "request", "%v", err)
		return
	}
	defer cancel()
	diag, err := spec.Diagnose(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	core := make([]string, len(diag.Core))
	for i, c := range diag.Core {
		core[i] = c.String()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"dtd_empty": diag.DTDEmpty,
		"core":      core,
	})
}

// ---- POST /v1/specs/{id}/validate --------------------------------------

type violationJSON struct {
	Path       string `json:"path"`
	Line       int    `json:"line,omitempty"`
	Offset     int64  `json:"offset,omitempty"`
	Constraint string `json:"constraint,omitempty"`
	Msg        string `json:"msg"`
}

type validateResponse struct {
	OK         bool            `json:"ok"`
	Elements   int             `json:"elements"`
	Truncated  bool            `json:"truncated,omitempty"`
	Violations []violationJSON `json:"violations,omitempty"`
}

// handleValidate streams the request body — the XML document itself —
// straight into Spec.ValidateStream, so a multi-gigabyte document is
// validated in bounded memory without ever being buffered server-side.
func (s *server) handleValidate(w http.ResponseWriter, r *http.Request, spec *xic.Spec) {
	ctx, cancel, err := s.requestContext(r, "")
	if err != nil {
		s.writeStatusError(w, http.StatusBadRequest, "request", "%v", err)
		return
	}
	defer cancel()
	body := r.Body
	if s.cfg.MaxDoc > 0 {
		body = http.MaxBytesReader(baseWriter(w), body, s.cfg.MaxDoc)
	}
	rep, err := spec.ValidateStream(ctx, body) //xic:ignore httpguard MaxDoc=0 opts out of the body cap by operator choice; the stream validator holds bounded memory regardless of document size
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeStatusError(w, http.StatusRequestEntityTooLarge, "request",
				"document exceeds %d bytes", mbe.Limit)
			return
		}
		s.writeError(w, err)
		return
	}
	s.elements.Add(int64(rep.Elements))
	resp := validateResponse{OK: rep.OK(), Elements: rep.Elements, Truncated: rep.Truncated}
	for _, v := range rep.Violations {
		vj := violationJSON{Path: v.Path, Line: v.Line, Offset: v.Offset, Msg: v.Msg}
		if v.Constraint != nil {
			vj.Constraint = v.Constraint.String()
		}
		resp.Violations = append(resp.Violations, vj)
	}
	s.writeJSON(w, http.StatusOK, resp)
}
