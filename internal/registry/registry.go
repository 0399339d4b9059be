// Package registry caches compiled xic engines for long-lived serving
// processes. The paper's fixed-DTD setting (Corollaries 4.11 and 5.5) makes
// per-request work polynomial only after the per-DTD compilation is paid;
// the registry pays it once per distinct artifact across two tiers
// mirroring the two-stage Schema/Spec API:
//
//   - the schema tier caches compiled xic.Schema values keyed by
//     xic.FingerprintDTD of the DTD source — the heavy, constraint-free
//     per-DTD work (simplification, encoding template, automata);
//   - the spec tier caches bound xic.Spec values keyed by the fused
//     xic.Fingerprint of (DTD source, constraint source) — the cheap
//     Schema.Bind product.
//
// A spec-tier miss therefore costs only a Bind when its schema tier hits:
// many constraint sets over one DTD — constraint authoring, per-tenant
// sets, implication sweeps — pay the DTD compilation once. Both tiers are
// concurrency-safe, size-bounded LRUs, and compilation of one key in either
// tier is deduplicated (singleflight): concurrent calls for the same
// sources share a single in-flight compile or bind instead of racing N
// copies of the work.
package registry

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"

	"xic"
)

// DefaultMaxSpecs bounds the spec tier when the caller passes no limit. A
// bound Spec holds the constraint set, its streaming indexes and a view of
// the shared schema engine — typically small next to the Schema — so a
// default in the low hundreds keeps a busy daemon well under a gigabyte
// while still amortising virtually all real traffic.
const DefaultMaxSpecs = 256

// DefaultMaxSchemas bounds the schema tier when the caller passes no
// limit. A compiled Schema holds the simplified DTD, the encoding template
// and the conformance automata — the heavy artifacts — but real fleets
// serve far fewer distinct DTDs than (DTD, constraints) pairs, so the
// schema tier can be smaller than the spec tier.
const DefaultMaxSchemas = 64

// ErrUnknownSchema is returned by BindByID when the schema fingerprint is
// not cached (never seen, or evicted): the caller must recompile the
// schema by resubmitting the DTD source.
var ErrUnknownSchema = errors.New("registry: unknown schema fingerprint")

// SchemaEntry is one cached compiled schema (the DTD-only tier).
//
// xic:frozen
type SchemaEntry struct {
	// ID is the content fingerprint of the DTD source
	// (xic.FingerprintDTD), the handle serving layers hand out to clients
	// that want to bind constraint sets without resubmitting the DTD.
	ID string
	// Schema is the compiled per-DTD engine; immutable and safe for
	// concurrent use.
	Schema *xic.Schema
	// CompileTime is how long xic.CompileDTDString took when this entry
	// was first built.
	CompileTime time.Duration
}

// Entry is one cached bound specification (the spec tier).
//
// xic:frozen
type Entry struct {
	// ID is the fused content fingerprint of the sources
	// (xic.Fingerprint), and is the handle serving layers hand out to
	// clients.
	ID string
	// SchemaID is the schema-tier fingerprint this Spec was bound from
	// (the first half of ID).
	SchemaID string
	// Spec is the compiled engine; immutable and safe for concurrent use.
	Spec *xic.Spec
	// CompileTime is how long the schema compilation took when this
	// entry's miss had to run it; zero when the schema tier hit.
	CompileTime time.Duration
	// BindTime is how long Schema.BindStrings took for this entry.
	BindTime time.Duration
}

// TierStats is a point-in-time snapshot of one cache tier's counters.
type TierStats struct {
	// Hits counts calls answered from this tier's cache (including joins
	// on an in-flight compilation of the same key).
	Hits uint64
	// Misses counts calls that had to run this tier's work, plus lookups
	// of unknown ids.
	Misses uint64
	// Evictions counts entries dropped to keep the tier within bounds.
	Evictions uint64
	// Errors counts failed compilations or binds; failures are never
	// cached, so a retried bad input re-fails fresh.
	Errors uint64
	// Time is the total wall time spent doing this tier's work
	// (xic.CompileDTDString for the schema tier, Schema.BindStrings for
	// the spec tier).
	Time time.Duration
	// Size is the current number of cached entries.
	Size int
}

// Stats is a point-in-time snapshot of registry counters. The top-level
// fields describe the spec tier — the request-facing cache, and the
// compatible view of the pre-two-tier registry — while Schemas and Specs
// carry the full per-tier breakdown.
type Stats struct {
	// Hits counts Compile, BindByID and Get calls answered from the spec
	// tier.
	Hits uint64
	// Misses counts calls that had to bind (and possibly compile), and
	// Get calls for unknown ids.
	Misses uint64
	// Evictions counts spec-tier entries dropped to keep the registry
	// within bounds.
	Evictions uint64
	// CompileErrors counts Compile/BindByID calls that failed (one per
	// failed call, wherever the failure arose); failures are never cached.
	CompileErrors uint64
	// CompileTime is the total wall time spent compiling schemas and
	// binding constraint sets.
	CompileTime time.Duration
	// Specs is the current number of cached spec-tier entries.
	Specs int

	// Schemas is the schema tier (DTD hash → compiled Schema).
	Schemas TierStats
	// SpecTier is the spec tier (fused hash → bound Spec), the same
	// counters the top-level fields summarise.
	SpecTier TierStats
}

// inflight is one in-progress compilation that late arrivals wait on.
type inflight struct {
	done  chan struct{}
	value any // *SchemaEntry or *Entry
	err   error
}

// tier is one size-bounded LRU with singleflight, guarded by the
// registry's mutex.
type tier struct {
	max     int
	order   *list.List               // front = most recently used
	byID    map[string]*list.Element // fingerprint → list element
	pending map[string]*inflight     // fingerprint → in-flight work
	stats   TierStats
}

func newTier(max int) *tier {
	return &tier{
		max:     max,
		order:   list.New(),
		byID:    make(map[string]*list.Element),
		pending: make(map[string]*inflight),
	}
}

// Registry is the two-level cache. The zero value is not usable; call New.
type Registry struct {
	mu      sync.Mutex
	schemas *tier
	specs   *tier
	// evictedSolve totals the solver counters of the Specs the spec tier
	// has evicted, taken at eviction, so SolveStats never goes backwards.
	evictedSolve xic.SolveStats
}

// New returns a registry holding at most maxSpecs bound specifications and
// at most DefaultMaxSchemas compiled schemas — never more schemas than
// maxSpecs, since a registry bounded to a few specs has no use for a larger
// schema tier. maxSpecs < 1 means DefaultMaxSpecs.
func New(maxSpecs int) *Registry {
	if maxSpecs < 1 {
		maxSpecs = DefaultMaxSpecs
	}
	maxSchemas := DefaultMaxSchemas
	if maxSpecs < maxSchemas {
		maxSchemas = maxSpecs
	}
	return &Registry{
		schemas: newTier(maxSchemas),
		specs:   newTier(maxSpecs),
	}
}

// Compile returns the compiled Spec for the given sources, doing only the
// work the two tiers cannot answer: nothing on a spec-tier hit, one
// Schema.BindStrings on a schema-tier hit, and a full compile on a double
// miss. cached reports whether the Spec came from the spec tier. Errors
// are exactly those of xic.CompileStrings (*xic.ParseError, *xic.SpecError)
// and are never cached.
func (r *Registry) Compile(dtdSrc, constraintsSrc string) (e *Entry, cached bool, err error) {
	schemaID := xic.FingerprintDTD(dtdSrc)
	id := schemaID + xic.FingerprintConstraints(constraintsSrc)
	return r.compileSpec(id, schemaID, constraintsSrc, func() (*SchemaEntry, bool, error) {
		return r.compileSchema(schemaID, dtdSrc)
	})
}

// CompileSchema returns the compiled Schema for the DTD source, running
// xic.CompileDTDString only when no byte-identical DTD is cached. cached
// reports whether the answer came from the schema tier.
func (r *Registry) CompileSchema(dtdSrc string) (se *SchemaEntry, cached bool, err error) {
	return r.compileSchema(xic.FingerprintDTD(dtdSrc), dtdSrc)
}

// BindByID binds a constraint source against an already-cached schema,
// identified by its fingerprint, without resubmitting (or recompiling) the
// DTD. It returns ErrUnknownSchema when the fingerprint is not cached —
// never seen, or evicted — in which case the caller must fall back to
// Compile with the full sources.
func (r *Registry) BindByID(schemaID, constraintsSrc string) (e *Entry, cached bool, err error) {
	id := schemaID + xic.FingerprintConstraints(constraintsSrc)
	return r.compileSpec(id, schemaID, constraintsSrc, func() (*SchemaEntry, bool, error) {
		r.mu.Lock()
		se, ok := r.lookupLocked(r.schemas, schemaID)
		if !ok {
			r.schemas.stats.Misses++
		}
		r.mu.Unlock()
		if !ok {
			return nil, false, fmt.Errorf("%w: %s", ErrUnknownSchema, abbrev(schemaID))
		}
		return se.(*SchemaEntry), true, nil
	})
}

// compileSchema is the schema-tier lookup-or-compile.
func (r *Registry) compileSchema(schemaID, dtdSrc string) (*SchemaEntry, bool, error) {
	v, cached, err := r.do(r.schemas, schemaID, func() (any, time.Duration, error) {
		start := time.Now()
		schema, err := xic.CompileDTDString(dtdSrc)
		elapsed := time.Since(start)
		if err != nil {
			return nil, elapsed, err
		}
		return &SchemaEntry{ID: schemaID, Schema: schema, CompileTime: elapsed}, elapsed, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*SchemaEntry), cached, nil
}

// compileSpec is the spec-tier lookup-or-bind; getSchema resolves the
// schema tier only on a spec-tier miss, reporting whether the schema came
// from cache (a fresh schema's compile time is charged to the new entry).
func (r *Registry) compileSpec(id, schemaID, constraintsSrc string, getSchema func() (*SchemaEntry, bool, error)) (*Entry, bool, error) {
	v, cached, err := r.do(r.specs, id, func() (any, time.Duration, error) {
		se, schemaCached, err := getSchema()
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		spec, err := se.Schema.BindStrings(constraintsSrc)
		elapsed := time.Since(start)
		if err != nil {
			return nil, elapsed, err
		}
		entry := &Entry{ID: id, SchemaID: schemaID, Spec: spec, BindTime: elapsed}
		if !schemaCached {
			entry.CompileTime = se.CompileTime
		}
		return entry, elapsed, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*Entry), cached, nil
}

// do runs the lookup-singleflight-insert protocol on one tier: a cache hit
// or a join on an in-flight build counts as cached; otherwise build runs
// exactly once per key at a time, its duration is charged to the tier, and
// only successful values are inserted.
func (r *Registry) do(t *tier, key string, build func() (any, time.Duration, error)) (v any, cached bool, err error) {
	r.mu.Lock()
	if v, ok := r.lookupLocked(t, key); ok {
		r.mu.Unlock()
		return v, true, nil
	}
	if fl, ok := t.pending[key]; ok {
		// Someone is building this exact key right now: share their result
		// instead of duplicating the work.
		r.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		r.mu.Lock()
		t.stats.Hits++
		r.mu.Unlock()
		return fl.value, true, nil
	}
	fl := &inflight{done: make(chan struct{})}
	t.pending[key] = fl
	t.stats.Misses++
	r.mu.Unlock()

	// The pending entry must be resolved on every exit — including a panic
	// inside the build on pathological input — or every later call for this
	// key would block forever on fl.done.
	completed := false
	defer func() {
		if completed {
			return
		}
		fl.err = fmt.Errorf("registry: compilation of %s aborted", abbrev(key))
		r.mu.Lock()
		delete(t.pending, key)
		t.stats.Errors++
		r.mu.Unlock()
		close(fl.done)
	}()

	value, elapsed, err := build()
	completed = true

	r.mu.Lock()
	delete(t.pending, key)
	t.stats.Time += elapsed
	if err != nil {
		t.stats.Errors++
		fl.err = err
		r.mu.Unlock()
		close(fl.done)
		return nil, false, err
	}
	r.insertLocked(t, key, value)
	fl.value = value
	r.mu.Unlock()
	close(fl.done)
	return value, false, nil
}

// lookupLocked returns the cached value for key, refreshing its LRU
// position and counting the hit. Callers hold r.mu.
func (r *Registry) lookupLocked(t *tier, key string) (any, bool) {
	el, ok := t.byID[key]
	if !ok {
		return nil, false
	}
	t.order.MoveToFront(el)
	t.stats.Hits++
	return el.Value.(keyedValue).v, true
}

// keyedValue pairs a cached value with its key so eviction can remove the
// index entry.
type keyedValue struct {
	k string
	v any
}

// insertLocked adds a fresh entry at the front and evicts from the back
// past the bound. Callers hold r.mu.
func (r *Registry) insertLocked(t *tier, key string, v any) {
	t.byID[key] = t.order.PushFront(keyedValue{k: key, v: v})
	for t.order.Len() > t.max {
		back := t.order.Back()
		t.order.Remove(back)
		delete(t.byID, back.Value.(keyedValue).k)
		t.stats.Evictions++
		if e, ok := back.Value.(keyedValue).v.(*Entry); ok {
			addSolveStats(&r.evictedSolve, e.Spec.SolveStats())
		}
	}
}

// SolveStats returns the solver counters of every Spec the spec tier has
// held: the live entries' counters plus those of evicted Specs, added in
// at eviction. No counter ever decreases. Work an in-flight request adds
// to a Spec after its eviction is not counted.
func (r *Registry) SolveStats() xic.SolveStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.evictedSolve
	for el := r.specs.order.Front(); el != nil; el = el.Next() {
		addSolveStats(&total, el.Value.(keyedValue).v.(*Entry).Spec.SolveStats())
	}
	return total
}

// addSolveStats adds st into total, counter by counter.
func addSolveStats(total *xic.SolveStats, st xic.SolveStats) {
	total.Solves += st.Solves
	total.PresolveDecided += st.PresolveDecided
	total.PresolveBailed += st.PresolveBailed
	total.FastPath += st.FastPath
	total.Nodes += st.Nodes
	total.Pivots += st.Pivots
	total.FastPivots += st.FastPivots
	total.ExactFallbacks += st.ExactFallbacks
	total.Steals += st.Steals
	total.PresolveRows += st.PresolveRows
	total.PresolveRowsOut += st.PresolveRowsOut
	total.VarsFixed += st.VarsFixed
	total.ImplicationsResolved += st.ImplicationsResolved
}

// Get returns the cached Spec with the given fused fingerprint id,
// refreshing its LRU position.
func (r *Registry) Get(id string) (*xic.Spec, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.lookupLocked(r.specs, id)
	if !ok {
		r.specs.stats.Misses++
		return nil, false
	}
	return v.(*Entry).Spec, true
}

// GetSchema returns the cached Schema with the given DTD fingerprint id,
// refreshing its LRU position.
func (r *Registry) GetSchema(id string) (*xic.Schema, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.lookupLocked(r.schemas, id)
	if !ok {
		r.schemas.stats.Misses++
		return nil, false
	}
	return v.(*SchemaEntry).Schema, true
}

// Entries returns a snapshot of the cached spec-tier entries, most
// recently used first, without refreshing LRU positions.
func (r *Registry) Entries() []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Entry, 0, r.specs.order.Len())
	for el := r.specs.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(keyedValue).v.(*Entry))
	}
	return out
}

// SchemaEntries returns a snapshot of the cached schema-tier entries, most
// recently used first, without refreshing LRU positions.
func (r *Registry) SchemaEntries() []*SchemaEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*SchemaEntry, 0, r.schemas.order.Len())
	for el := r.schemas.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(keyedValue).v.(*SchemaEntry))
	}
	return out
}

// Len returns the number of cached specifications (the spec tier).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.specs.order.Len()
}

// SchemasLen returns the number of cached schemas.
func (r *Registry) SchemasLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.schemas.order.Len()
}

// Stats returns a snapshot of the counters across both tiers.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	schemas := r.schemas.stats
	schemas.Size = r.schemas.order.Len()
	specs := r.specs.stats
	specs.Size = r.specs.order.Len()
	return Stats{
		Hits:          specs.Hits,
		Misses:        specs.Misses,
		Evictions:     specs.Evictions,
		CompileErrors: specs.Errors,
		CompileTime:   specs.Time + schemas.Time,
		Specs:         specs.Size,
		Schemas:       schemas,
		SpecTier:      specs,
	}
}

// abbrev shortens a fingerprint for error messages.
func abbrev(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
