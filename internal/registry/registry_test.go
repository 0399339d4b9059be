package registry

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xic"
)

const teachersDTD = `
<!ELEMENT teachers (teacher+)>
<!ELEMENT teacher (teach, research)>
<!ELEMENT teach (subject, subject)>
<!ELEMENT research (#PCDATA)>
<!ELEMENT subject (#PCDATA)>
<!ATTLIST teacher name CDATA #REQUIRED>
<!ATTLIST subject taught_by CDATA #REQUIRED>`

const teachersXIC = `
teacher.name -> teacher
subject.taught_by -> subject
subject.taught_by => teacher.name`

// numberedDTD returns a distinct tiny specification per i, for filling the
// cache with unequal fingerprints.
func numberedDTD(i int) string {
	return fmt.Sprintf(`<!ELEMENT r%d EMPTY>`, i)
}

func TestCompileCachesByContent(t *testing.T) {
	r := New(8)
	e1, cached, err := r.Compile(teachersDTD, teachersXIC)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first Compile reported cached")
	}
	if e1.ID != xic.Fingerprint(teachersDTD, teachersXIC) {
		t.Errorf("entry id %q is not the content fingerprint", e1.ID)
	}
	if e1.CompileTime <= 0 {
		t.Error("fresh entry has no compile time")
	}
	e2, cached, err := r.Compile(teachersDTD, teachersXIC)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second Compile of identical sources missed the cache")
	}
	if e1.Spec != e2.Spec {
		t.Error("cache returned a different Spec for identical sources")
	}
	if s, ok := r.Get(e1.ID); !ok || s != e1.Spec {
		t.Error("Get by id did not return the cached Spec")
	}
	st := r.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Specs != 1 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 1 spec", st)
	}
}

func TestDistinctSourcesDistinctEntries(t *testing.T) {
	r := New(8)
	a, _, err := r.Compile(teachersDTD, teachersXIC)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.Compile(teachersDTD+" ", teachersXIC)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Error("different sources share a fingerprint")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	r := New(3)
	ids := make([]string, 5)
	for i := 0; i < 4; i++ {
		e, _, err := r.Compile(numberedDTD(i), "")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = e.ID
	}
	// Capacity 3, four inserts: entry 0 is the least recently used and gone.
	if _, ok := r.Get(ids[0]); ok {
		t.Error("oldest entry survived past the bound")
	}
	// Touch entry 1 so entry 2 becomes the eviction victim.
	if _, ok := r.Get(ids[1]); !ok {
		t.Fatal("entry 1 missing")
	}
	e, _, err := r.Compile(numberedDTD(4), "")
	if err != nil {
		t.Fatal(err)
	}
	ids[4] = e.ID
	if _, ok := r.Get(ids[2]); ok {
		t.Error("LRU order ignored: untouched entry 2 survived, despite Get of entry 1")
	}
	for _, id := range []string{ids[1], ids[3], ids[4]} {
		if _, ok := r.Get(id); !ok {
			t.Errorf("expected entry %s cached", id[:8])
		}
	}
	if st := r.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
}

func TestCompileErrorsNotCached(t *testing.T) {
	r := New(8)
	_, _, err := r.Compile("<!ELEMENT", "")
	if err == nil {
		t.Fatal("bad DTD compiled")
	}
	var pe *xic.ParseError
	if !errors.As(err, &pe) {
		t.Errorf("error %v is not a *xic.ParseError", err)
	}
	if r.Len() != 0 {
		t.Error("failed compilation was cached")
	}
	if st := r.Stats(); st.CompileErrors != 1 {
		t.Errorf("compile errors = %d, want 1", st.CompileErrors)
	}
	// And the retry fails identically rather than hitting a poisoned entry.
	if _, cached, err := r.Compile("<!ELEMENT", ""); err == nil || cached {
		t.Errorf("retry: cached=%v err=%v, want fresh failure", cached, err)
	}
}

// TestConcurrentCompileSharesWork hammers one key from many goroutines and
// checks they all get the same Spec while xic.Compile ran far fewer times
// than there were callers (the inflight map dedups identical keys).
func TestConcurrentCompileSharesWork(t *testing.T) {
	r := New(8)
	const workers = 32
	var wg sync.WaitGroup
	var fresh atomic.Int64
	specs := make([]*xic.Spec, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, cached, err := r.Compile(teachersDTD, teachersXIC)
			if err != nil {
				t.Error(err)
				return
			}
			if !cached {
				fresh.Add(1)
			}
			specs[i] = e.Spec
		}(i)
	}
	wg.Wait()
	if fresh.Load() != 1 {
		t.Errorf("%d goroutines ran a fresh compile, want exactly 1", fresh.Load())
	}
	for i := 1; i < workers; i++ {
		if specs[i] != specs[0] {
			t.Fatalf("goroutine %d got a different Spec", i)
		}
	}
	// The shared Spec actually answers.
	res, err := specs[0].Consistent(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("teachers specification must be inconsistent (paper Section 1)")
	}
}

// TestTwoTierSchemaReuse: distinct constraint sets over one DTD compile the
// schema exactly once; the spec tier records one miss per set.
func TestTwoTierSchemaReuse(t *testing.T) {
	r := New(8)
	sets := []string{teachersXIC, "teacher.name -> teacher", ""}
	for _, cons := range sets {
		e, cached, err := r.Compile(teachersDTD, cons)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Errorf("first compile of set %q reported cached", cons)
		}
		if e.SchemaID != xic.FingerprintDTD(teachersDTD) {
			t.Errorf("entry schema id %q is not the DTD fingerprint", e.SchemaID)
		}
		if e.ID != e.SchemaID+xic.FingerprintConstraints(cons) {
			t.Errorf("entry id is not schemaID+constraints fingerprint")
		}
	}
	st := r.Stats()
	if st.Schemas.Misses != 1 || st.Schemas.Size != 1 {
		t.Errorf("schema tier = %+v, want exactly one compile for three sets", st.Schemas)
	}
	if st.Schemas.Hits != uint64(len(sets)-1) {
		t.Errorf("schema tier hits = %d, want %d", st.Schemas.Hits, len(sets)-1)
	}
	if st.SpecTier.Misses != uint64(len(sets)) || st.SpecTier.Size != len(sets) {
		t.Errorf("spec tier = %+v, want one miss per set", st.SpecTier)
	}
	// Only the first entry paid the schema compile; the others were pure
	// binds.
	entries := r.Entries()
	var paid int
	for _, e := range entries {
		if e.CompileTime > 0 {
			paid++
		}
		if e.BindTime <= 0 {
			t.Errorf("entry %s has no bind time", e.ID[:8])
		}
	}
	if paid != 1 {
		t.Errorf("%d entries charged schema compile time, want 1", paid)
	}
}

// TestBindByID binds constraint sets against a registered schema without
// resubmitting the DTD, and fails cleanly for unknown fingerprints.
func TestBindByID(t *testing.T) {
	r := New(8)
	se, cached, err := r.CompileSchema(teachersDTD)
	if err != nil {
		t.Fatal(err)
	}
	if cached || se.CompileTime <= 0 {
		t.Errorf("fresh schema: cached=%v compileTime=%v", cached, se.CompileTime)
	}
	if se.ID != xic.FingerprintDTD(teachersDTD) {
		t.Errorf("schema id %q is not the DTD fingerprint", se.ID)
	}
	if _, cached, err = r.CompileSchema(teachersDTD); err != nil || !cached {
		t.Errorf("resubmitted schema missed: cached=%v err=%v", cached, err)
	}

	e, cached, err := r.BindByID(se.ID, teachersXIC)
	if err != nil {
		t.Fatal(err)
	}
	if cached || e.CompileTime != 0 {
		t.Errorf("bind-by-id: cached=%v compileTime=%v, want fresh bind with no schema compile", cached, e.CompileTime)
	}
	// The bound entry is the same one a full-source compile resolves to.
	e2, cached, err := r.Compile(teachersDTD, teachersXIC)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || e2.Spec != e.Spec {
		t.Errorf("full-source compile did not hit the bound entry (cached=%v)", cached)
	}

	if _, _, err := r.BindByID("feedfacefeedface", teachersXIC); !errors.Is(err, ErrUnknownSchema) {
		t.Errorf("unknown schema id: err=%v, want ErrUnknownSchema", err)
	}

	if schema, ok := r.GetSchema(se.ID); !ok || schema != se.Schema {
		t.Error("GetSchema did not return the cached schema")
	}
	if len(r.SchemaEntries()) != 1 || r.SchemasLen() != 1 {
		t.Error("schema tier snapshot inconsistent")
	}
}

// TestConcurrentBindSharesWork hammers one (schema, constraints) pair from
// many goroutines: the spec tier's singleflight must run exactly one bind,
// and simultaneous binds of a distinct set must not be blocked by it.
func TestConcurrentBindSharesWork(t *testing.T) {
	r := New(8)
	se, _, err := r.CompileSchema(teachersDTD)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 32
	var wg sync.WaitGroup
	var freshSame, freshOther atomic.Int64
	specs := make([]*xic.Spec, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 3 {
				// A distinct set interleaved with the hammered one.
				if _, cached, err := r.BindByID(se.ID, "teacher.name -> teacher"); err != nil {
					t.Error(err)
				} else if !cached {
					freshOther.Add(1)
				}
				return
			}
			e, cached, err := r.BindByID(se.ID, teachersXIC)
			if err != nil {
				t.Error(err)
				return
			}
			if !cached {
				freshSame.Add(1)
			}
			specs[i] = e.Spec
		}(i)
	}
	wg.Wait()
	if freshSame.Load() != 1 {
		t.Errorf("%d goroutines ran a fresh bind of the same set, want exactly 1 (singleflight)", freshSame.Load())
	}
	if freshOther.Load() != 1 {
		t.Errorf("%d fresh binds of the distinct set, want exactly 1", freshOther.Load())
	}
	var shared *xic.Spec
	for i, s := range specs {
		if s == nil {
			continue
		}
		if shared == nil {
			shared = s
		} else if s != shared {
			t.Fatalf("goroutine %d got a different Spec for identical sources", i)
		}
	}
	// The deduped Spec answers.
	res, err := shared.Consistent(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("teachers specification must be inconsistent (paper Section 1)")
	}
}

// TestSchemaTierSingleflight: concurrent full-source compiles of distinct
// constraint sets over one brand-new DTD run the schema compilation once.
func TestSchemaTierSingleflight(t *testing.T) {
	r := New(8)
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cons := fmt.Sprintf("teacher.name -> teacher # set %d", i%4)
			if _, _, err := r.Compile(teachersDTD, cons); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := r.Stats()
	if st.Schemas.Misses != 1 {
		t.Errorf("schema tier ran %d compiles for one DTD, want 1", st.Schemas.Misses)
	}
	if st.SpecTier.Size != 4 {
		t.Errorf("spec tier holds %d entries, want 4 distinct sets", st.SpecTier.Size)
	}
}

// TestSolveStatsNeverDecrease: the registry's solver totals keep the
// counts of evicted Specs, so a reader never sees them fall while other
// goroutines compile, check and evict concurrently.
func TestSolveStatsNeverDecrease(t *testing.T) {
	r := New(2)
	const workers, rounds = 4, 6
	stop := make(chan struct{})
	fell := make(chan string, 1)
	go func() {
		defer close(fell)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := r.SolveStats().Solves
			if got < last {
				fell <- fmt.Sprintf("solves fell from %d to %d", last, got)
				return
			}
			last = got
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Trailing newlines make each constraint source, and so each
				// spec, distinct; the two-entry spec tier evicts constantly.
				e, _, err := r.Compile(teachersDTD, teachersXIC+strings.Repeat("\n", w*rounds+i))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Spec.Consistent(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if msg, ok := <-fell; ok {
		t.Fatal(msg)
	}
	if got := r.SolveStats().Solves; got == 0 || got > workers*rounds {
		t.Errorf("Solves = %d after %d checks, want between 1 and %d", got, workers*rounds, workers*rounds)
	}
}

// within runs f and fails the test if it does not return promptly: a
// registry call that waits on a lock some earlier call left held fails
// fast instead of hanging the package.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return: a registry lock was left held", what)
	}
}

// TestBuildPanicReleasesLock panics inside a build: the panic reaches the
// caller, the tier counts one error, and the registry stays usable — the
// same key then builds.
func TestBuildPanicReleasesLock(t *testing.T) {
	r := New(8)
	key := xic.FingerprintDTD(teachersDTD)
	within(t, "a panicking build", func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("recovered %v, want the build's panic", p)
			}
		}()
		r.do(r.schemas, key, func() (any, time.Duration, error) { panic("boom") })
	})
	within(t, "the registry after a panicking build", func() {
		if st := r.Stats(); st.Schemas.Errors != 1 || st.Schemas.Misses != 1 {
			t.Errorf("schema tier: %d errors, %d misses after one panicking build; want 1, 1", st.Schemas.Errors, st.Schemas.Misses)
		}
		if _, ok := r.Get(key); ok || r.Len() != 0 {
			t.Error("a panicking build left an entry behind")
		}
		if _, cached, err := r.CompileSchema(teachersDTD); err != nil || cached {
			t.Errorf("rebuilding the key: cached=%v err=%v, want a fresh build", cached, err)
		}
		if _, _, err := r.Compile(teachersDTD, teachersXIC); err != nil {
			t.Error(err)
		}
	})
}

// TestJoinOnInflightBuildIsAHit parks a second caller on an in-flight
// build: it gets the builder's value, counts as a hit, and leaves the
// registry unlocked.
func TestJoinOnInflightBuildIsAHit(t *testing.T) {
	r := New(8)
	started, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	releaseBuild := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseBuild() // a failing test must not leave the build parked
	go r.do(r.schemas, "k", func() (any, time.Duration, error) {
		close(started)
		<-release
		return "built", 0, nil
	})
	<-started
	type result struct {
		v      any
		cached bool
		err    error
	}
	joined := make(chan result, 1)
	go func() {
		v, cached, err := r.do(r.schemas, "k", func() (any, time.Duration, error) {
			t.Error("a second build ran for an in-flight key")
			return nil, 0, errors.New("duplicate build")
		})
		joined <- result{v, cached, err}
	}()
	deadline := time.After(10 * time.Second)
	for !parkedInDo() {
		select {
		case <-deadline:
			t.Fatal("the second caller never waited on the in-flight build")
		case <-time.After(time.Millisecond):
		}
	}
	releaseBuild()
	select {
	case got := <-joined:
		if got.v != "built" || !got.cached || got.err != nil {
			t.Errorf("joined caller got %v, cached=%v, err=%v; want the builder's value as a hit", got.v, got.cached, got.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the joined caller never returned")
	}
	within(t, "Stats after a join", func() {
		if st := r.Stats(); st.Schemas.Hits != 1 || st.Schemas.Misses != 1 {
			t.Errorf("schema tier: %d hits, %d misses; want 1, 1", st.Schemas.Hits, st.Schemas.Misses)
		}
	})
}

// parkedInDo reports whether some goroutine is blocked on a channel
// receive in Registry.do itself — a caller waiting for another caller's
// in-flight build — rather than in a build that do called.
func parkedInDo() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "[chan receive") {
			continue
		}
		for _, line := range strings.Split(g, "\n")[1:] {
			if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "runtime.") {
				continue
			}
			if strings.HasPrefix(line, "xic/internal/registry.(*Registry).do(") {
				return true
			}
			break
		}
	}
	return false
}

// TestSchemasLenReleasesLock calls SchemasLen and then another method
// that takes the registry's lock.
func TestSchemasLenReleasesLock(t *testing.T) {
	r := New(8)
	if _, _, err := r.CompileSchema(teachersDTD); err != nil {
		t.Fatal(err)
	}
	within(t, "SchemasLen", func() {
		if n := r.SchemasLen(); n != 1 {
			t.Errorf("SchemasLen = %d, want 1", n)
		}
	})
	within(t, "Len after SchemasLen", func() {
		if n := r.Len(); n != 0 {
			t.Errorf("Len = %d, want 0", n)
		}
	})
}
