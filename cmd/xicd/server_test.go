package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"xic"
)

// The paper's Section 1 teachers example: compiles, NP class, inconsistent.
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

// A consistent unary key/foreign-key specification with valid documents.
const dbDTD = `
<!ELEMENT db (emp*, dept*)>
<!ELEMENT emp EMPTY>
<!ELEMENT dept EMPTY>
<!ATTLIST emp id CDATA #REQUIRED works_in CDATA #REQUIRED>
<!ATTLIST dept id CDATA #REQUIRED>`

const dbXIC = `
emp.id -> emp
dept.id -> dept
emp.works_in => dept.id`

const dbDocOK = `<db>
  <emp id="e1" works_in="d1"/>
  <emp id="e2" works_in="d1"/>
  <dept id="d1"/>
</db>`

const dbDocBad = `<db>
  <emp id="e1" works_in="d1"/>
  <emp id="e1" works_in="d9"/>
  <dept id="d1"/>
</db>`

func newTestServer(t *testing.T, cfg config) *server {
	t.Helper()
	s := newServer(cfg)
	t.Cleanup(s.close)
	return s
}

// post sends a request through the full router and returns the recorder.
func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON response %q: %v", w.Body.String(), err)
	}
	return v
}

// compileSpec registers a spec through the API and returns its id.
func compileSpec(t *testing.T, h http.Handler, dtd, cons string) string {
	t.Helper()
	body, _ := json.Marshal(compileRequest{DTD: dtd, Constraints: cons})
	w := do(t, h, "POST", "/v1/specs", string(body))
	if w.Code != http.StatusCreated && w.Code != http.StatusOK {
		t.Fatalf("compile: status %d: %s", w.Code, w.Body)
	}
	return decode[compileResponse](t, w).ID
}

func TestCompileEndpoint(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	body, _ := json.Marshal(compileRequest{DTD: teachersDTD, Constraints: teachersXIC})

	w := do(t, h, "POST", "/v1/specs", string(body))
	if w.Code != http.StatusCreated {
		t.Fatalf("fresh compile: status %d: %s", w.Code, w.Body)
	}
	resp := decode[compileResponse](t, w)
	if resp.Cached {
		t.Error("fresh compile reported cached")
	}
	if want := xic.Fingerprint(teachersDTD, teachersXIC); resp.ID != want {
		t.Errorf("id = %q, want content fingerprint %q", resp.ID, want)
	}
	if resp.Constraints != 3 {
		t.Errorf("constraints = %d, want 3", resp.Constraints)
	}

	if resp.CompileMs <= 0 {
		t.Error("fresh compile reports no compile_ms")
	}

	w = do(t, h, "POST", "/v1/specs", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("cached compile: status %d", w.Code)
	}
	cachedResp := decode[compileResponse](t, w)
	if !cachedResp.Cached {
		t.Error("identical resubmission missed the cache")
	}
	if cachedResp.CompileMs != 0 {
		t.Error("cached response reports compile_ms although nothing compiled")
	}
}

func TestCompileErrors(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	for _, tc := range []struct {
		name, body string
		status     int
		kind       string
	}{
		{"bad json", `{"dtd": `, 400, "request"},
		{"missing dtd", `{"constraints": "a.b -> a"}`, 400, "request"},
		{"dtd syntax error", `{"dtd": "<!ELEMENT"}`, 400, "parse"},
		{"constraint against missing type", fmt.Sprintf(`{"dtd": %q, "constraints": "nosuch.a -> nosuch"}`, "<!ELEMENT r EMPTY>"), 422, "spec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, h, "POST", "/v1/specs", tc.body)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body)
			}
			env := decode[map[string]errorBody](t, w)
			if env["error"].Kind != tc.kind {
				t.Errorf("kind %q, want %q (%s)", env["error"].Kind, tc.kind, w.Body)
			}
		})
	}
}

func TestUnknownSpec(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	for _, ep := range []string{"consistent", "implies", "diagnose", "validate"} {
		if w := do(t, h, "POST", "/v1/specs/deadbeef/"+ep, ""); w.Code != http.StatusNotFound {
			t.Errorf("%s on unknown spec: status %d, want 404", ep, w.Code)
		}
	}
	if w := do(t, h, "GET", "/v1/specs/deadbeef", ""); w.Code != http.StatusNotFound {
		t.Errorf("GET unknown spec: status %d, want 404", w.Code)
	}
}

func TestConsistentEndpoint(t *testing.T) {
	h := newTestServer(t, config{}).handler()

	teachers := compileSpec(t, h, teachersDTD, teachersXIC)
	w := do(t, h, "POST", "/v1/specs/"+teachers+"/consistent", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if res := decode[consistentResult](t, w); res.Consistent {
		t.Error("teachers specification must be inconsistent")
	}

	db := compileSpec(t, h, dbDTD, dbXIC)
	w = do(t, h, "POST", "/v1/specs/"+db+"/consistent", "")
	res := decode[consistentResult](t, w)
	if !res.Consistent {
		t.Fatal("db specification must be consistent")
	}
	if res.Witness == "" {
		t.Error("consistent answer carries no witness")
	}
	w = do(t, h, "POST", "/v1/specs/"+db+"/consistent", `{"skip_witness": true}`)
	if res := decode[consistentResult](t, w); res.Witness != "" {
		t.Error("skip_witness still produced a witness")
	}

	// A per-request extension flips the verdict: Σ keeps emp.id a key, so
	// adding its negation leaves no satisfying document.
	w = do(t, h, "POST", "/v1/specs/"+db+"/consistent", `{"extra": ["not emp.id -> emp"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("extra: status %d: %s", w.Code, w.Body)
	}
	if res := decode[consistentResult](t, w); res.Consistent {
		t.Error("Σ + ¬(emp.id -> emp) must be inconsistent")
	}
}

func TestConsistentBatch(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	db := compileSpec(t, h, dbDTD, dbXIC)
	body := `{"sets": [[], ["not dept.id -> dept"], ["bogus ->"]], "skip_witness": true}`
	w := do(t, h, "POST", "/v1/specs/"+db+"/consistent", body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("batch with unparseable member: status %d, want 400", w.Code)
	}

	// "extra" does not compose with "sets"; refusing beats silently
	// answering a different question than the client asked.
	body = `{"extra": ["not emp.id -> emp"], "sets": [[]]}`
	if w := do(t, h, "POST", "/v1/specs/"+db+"/consistent", body); w.Code != http.StatusBadRequest {
		t.Fatalf("extra+sets: status %d, want 400", w.Code)
	}

	body = `{"sets": [[], ["not dept.id -> dept"]], "skip_witness": true}`
	w = do(t, h, "POST", "/v1/specs/"+db+"/consistent", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body)
	}
	resp := decode[struct {
		Results []consistentResult `json:"results"`
	}](t, w)
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	if !resp.Results[0].Consistent {
		t.Error("Σ alone must be consistent")
	}
}

func TestImpliesEndpoint(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	db := compileSpec(t, h, dbDTD, dbXIC)

	// Σ contains emp.id -> emp, so it is trivially implied.
	w := do(t, h, "POST", "/v1/specs/"+db+"/implies", `{"query": "emp.id -> emp"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if res := decode[impliesResult](t, w); !res.Implied {
		t.Error("member of Σ not implied")
	}

	// dept.id ⊆ emp.works_in does not follow; expect a counterexample.
	w = do(t, h, "POST", "/v1/specs/"+db+"/implies", `{"query": "dept.id <= emp.works_in"}`)
	res := decode[impliesResult](t, w)
	if res.Implied {
		t.Error("reverse inclusion wrongly implied")
	}
	if res.Counterexample == "" {
		t.Error("failed implication carries no counterexample")
	}

	// Batch.
	w = do(t, h, "POST", "/v1/specs/"+db+"/implies", `{"queries": ["emp.id -> emp", "dept.id <= emp.works_in"]}`)
	batch := decode[struct {
		Results []impliesResult `json:"results"`
	}](t, w)
	if len(batch.Results) != 2 || !batch.Results[0].Implied || batch.Results[1].Implied {
		t.Errorf("batch results wrong: %+v", batch.Results)
	}

	// Missing query.
	if w := do(t, h, "POST", "/v1/specs/"+db+"/implies", `{}`); w.Code != http.StatusBadRequest {
		t.Errorf("missing query: status %d, want 400", w.Code)
	}
}

func TestDiagnoseEndpoint(t *testing.T) {
	h := newTestServer(t, config{}).handler()

	teachers := compileSpec(t, h, teachersDTD, teachersXIC)
	w := do(t, h, "POST", "/v1/specs/"+teachers+"/diagnose", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	diag := decode[struct {
		DTDEmpty bool     `json:"dtd_empty"`
		Core     []string `json:"core"`
	}](t, w)
	if diag.DTDEmpty {
		t.Error("teachers DTD has valid trees")
	}
	if len(diag.Core) == 0 {
		t.Error("inconsistent spec has an empty core")
	}

	// Diagnosing a consistent spec is a client-state error, not a 500.
	db := compileSpec(t, h, dbDTD, dbXIC)
	w = do(t, h, "POST", "/v1/specs/"+db+"/diagnose", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("diagnose consistent spec: status %d, want 409: %s", w.Code, w.Body)
	}
	if env := decode[map[string]errorBody](t, w); env["error"].Kind != "consistent" {
		t.Errorf("kind = %q, want consistent", env["error"].Kind)
	}
}

func TestUndecidableMapsTo422(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	// Multi-attribute key mixed with a foreign key: compiles, but static
	// consistency is undecidable (Theorem 3.1).
	undecDTD := `
<!ELEMENT db (course*, dept*)>
<!ELEMENT course EMPTY>
<!ELEMENT dept EMPTY>
<!ATTLIST course dep CDATA #REQUIRED num CDATA #REQUIRED>
<!ATTLIST dept id CDATA #REQUIRED>`
	undecXIC := `
course(dep, num) -> course
course.dep => dept.id`
	id := compileSpec(t, h, undecDTD, undecXIC)
	w := do(t, h, "POST", "/v1/specs/"+id+"/consistent", "")
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", w.Code, w.Body)
	}
	if env := decode[map[string]errorBody](t, w); env["error"].Kind != "undecidable" {
		t.Errorf("kind = %q, want undecidable", env["error"].Kind)
	}
	// …but dynamic validation of that same spec still works.
	w = do(t, h, "POST", "/v1/specs/"+id+"/validate",
		`<db><course dep="cs" num="101"/><dept id="cs"/></db>`)
	if w.Code != http.StatusOK {
		t.Fatalf("validate under undecidable class: status %d: %s", w.Code, w.Body)
	}
	if res := decode[validateResponse](t, w); !res.OK {
		t.Errorf("document should validate: %+v", res)
	}
}

func TestValidateEndpoint(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	db := compileSpec(t, h, dbDTD, dbXIC)

	w := do(t, h, "POST", "/v1/specs/"+db+"/validate", dbDocOK)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	res := decode[validateResponse](t, w)
	if !res.OK || res.Elements != 4 {
		t.Errorf("valid doc: got %+v", res)
	}

	w = do(t, h, "POST", "/v1/specs/"+db+"/validate", dbDocBad)
	res = decode[validateResponse](t, w)
	if res.OK {
		t.Fatal("duplicate emp.id and dangling works_in reported valid")
	}
	if len(res.Violations) < 2 {
		t.Errorf("want ≥2 violations (key + foreign key), got %+v", res.Violations)
	}
	for _, v := range res.Violations {
		if v.Constraint == "" {
			t.Errorf("violation without constraint: %+v", v)
		}
	}

	// Malformed XML is a 400 parse error with a position.
	w = do(t, h, "POST", "/v1/specs/"+db+"/validate", "<db><emp id=")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed doc: status %d, want 400: %s", w.Code, w.Body)
	}
	if env := decode[map[string]errorBody](t, w); env["error"].Kind != "parse" || env["error"].Input != "document" {
		t.Errorf("malformed doc error: %+v", env["error"])
	}
}

// TestUnsupportedDeclarationIs400 is the regression test for XML
// declarations naming a version or encoding the reader does not support:
// they used to escape the error taxonomy as plain errors and come back as
// 500 internal from both document endpoints.
func TestUnsupportedDeclarationIs400(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	db := compileSpec(t, h, dbDTD, dbXIC)
	for _, decl := range []string{
		`<?xml version="1.0" encoding="ISO-8859-1"?>`,
		`<?xml version="1.1"?>`,
	} {
		for _, path := range []string{"/v1/specs/" + db + "/validate", "/v1/specs/" + db + "/sessions"} {
			w := do(t, h, "POST", path, decl+"\n"+dbDocOK)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s with %s: status %d, want 400: %s", path, decl, w.Code, w.Body)
			}
			if env := decode[map[string]errorBody](t, w); env["error"].Kind != "parse" || env["error"].Input != "document" || env["error"].Line != 1 {
				t.Errorf("%s with %s: error %+v", path, decl, env["error"])
			}
		}
	}
}

func TestBodyLimits(t *testing.T) {
	// JSON endpoints bound by MaxBody, validate by MaxDoc.
	h := newTestServer(t, config{MaxBody: 1024, MaxDoc: 1024}).handler()
	// Every error body is exactly one JSON value: decode fails on a second
	// one, as a handler that writes its error and falls through leaves.
	wantError := func(w *httptest.ResponseRecorder, what string, status int, kind string) {
		t.Helper()
		if w.Code != status {
			t.Fatalf("%s: status %d, want %d: %s", what, w.Code, status, w.Body)
		}
		if b := decode[map[string]errorBody](t, w)["error"]; b.Status != status || b.Kind != kind {
			t.Fatalf("%s: error body has status %d, kind %q; want %d, %q", what, b.Status, b.Kind, status, kind)
		}
	}

	big, _ := json.Marshal(compileRequest{DTD: strings.Repeat("<!ELEMENT r EMPTY>", 100)})
	wantError(do(t, h, "POST", "/v1/specs", string(big)), "oversized compile body", http.StatusRequestEntityTooLarge, "request")
	wantError(do(t, h, "POST", "/v1/schemas", string(big)), "oversized schema body", http.StatusRequestEntityTooLarge, "request")

	db := compileSpec(t, h, dbDTD, dbXIC) // small enough? dbDTD+dbXIC ≈ 250 bytes JSON — may exceed 256
	doc := "<db>" + strings.Repeat(`<dept id="d"/>`, 100) + "</db>"
	wantError(do(t, h, "POST", "/v1/specs/"+db+"/validate", doc), "oversized document", http.StatusRequestEntityTooLarge, "request")
	wantError(do(t, h, "POST", "/v1/specs/"+db+"/sessions", doc), "oversized session document", http.StatusRequestEntityTooLarge, "request")

	// A cut inside a multi-byte character is still the size limit, not a
	// syntax error: the 1024th byte starts a two-byte "é".
	doc = "<db>" + strings.Repeat("x", 1019) + "é</db>"
	for _, path := range []string{"/v1/specs/" + db + "/validate", "/v1/specs/" + db + "/sessions"} {
		wantError(do(t, h, "POST", path, doc), path+": document cut inside a character", http.StatusRequestEntityTooLarge, "request")
	}

	// A content model over the position bound is a spec error, rejected
	// before its automaton is built: nesting + 30 deep has 2^30 positions.
	nested, _ := json.Marshal(compileSchemaRequest{DTD: "<!ELEMENT r " + strings.Repeat("(", 30) + "a" + strings.Repeat(")+", 30) + "><!ELEMENT a EMPTY>"})
	wantError(do(t, h, "POST", "/v1/schemas", string(nested)), "content model over the position bound", http.StatusUnprocessableEntity, "spec")
}

func TestTimeoutCancelsMidSolve(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	id := compileSpec(t, h, teachersDTD, teachersXIC)

	// A deadline far below the NP search's cost lands inside the ILP
	// branch-and-bound, which must surface as 504/"canceled".
	w := do(t, h, "POST", "/v1/specs/"+id+"/consistent?timeout=1ns", "")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body)
	}
	if env := decode[map[string]errorBody](t, w); env["error"].Kind != "canceled" {
		t.Errorf("kind = %q, want canceled", env["error"].Kind)
	}

	// Same via the JSON field.
	w = do(t, h, "POST", "/v1/specs/"+id+"/consistent", `{"timeout": "1ns"}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("JSON timeout: status %d, want 504", w.Code)
	}

	// Bad timeout strings are request errors.
	if w := do(t, h, "POST", "/v1/specs/"+id+"/consistent?timeout=soon", ""); w.Code != http.StatusBadRequest {
		t.Errorf("bad timeout: status %d, want 400", w.Code)
	}
}

// TestClientDisconnectCancels drops the client mid-request over a real
// connection and checks the server keeps serving afterwards.
func TestClientDisconnectCancels(t *testing.T) {
	s := newTestServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/specs", "application/json",
		bytes.NewReader(mustJSON(compileRequest{DTD: teachersDTD, Constraints: teachersXIC})))
	if err != nil {
		t.Fatal(err)
	}
	var cr compileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/specs/"+cr.ID+"/consistent", nil)
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		// The solve may legitimately win the race; just drain it.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}

	// The server is still healthy and the cached spec still answers.
	resp, err = http.Post(ts.URL+"/v1/specs/"+cr.ID+"/consistent", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("post-disconnect request: status %d: %s", resp.StatusCode, body)
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// TestConcurrentRequestsOneSpec hammers one cached spec from many
// goroutines across every endpoint; run under -race this doubles as the
// registry/Spec concurrency audit.
func TestConcurrentRequestsOneSpec(t *testing.T) {
	s := newTestServer(t, config{})
	h := s.handler()
	db := compileSpec(t, h, dbDTD, dbXIC)

	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				switch (i + j) % 4 {
				case 0:
					w := do(t, h, "POST", "/v1/specs/"+db+"/consistent", `{"skip_witness": true}`)
					if w.Code != http.StatusOK {
						t.Errorf("consistent: status %d", w.Code)
					}
				case 1:
					w := do(t, h, "POST", "/v1/specs/"+db+"/validate", dbDocOK)
					if w.Code != http.StatusOK {
						t.Errorf("validate: status %d", w.Code)
					}
				case 2:
					w := do(t, h, "POST", "/v1/specs/"+db+"/implies", `{"query": "emp.id -> emp"}`)
					if w.Code != http.StatusOK {
						t.Errorf("implies: status %d", w.Code)
					}
				case 3:
					body, _ := json.Marshal(compileRequest{DTD: dbDTD, Constraints: dbXIC})
					w := do(t, h, "POST", "/v1/specs", string(body))
					if w.Code != http.StatusOK {
						t.Errorf("re-compile: status %d (want cached 200)", w.Code)
					}
				}
			}
		}(i)
	}
	wg.Wait()

	st := s.reg.Stats()
	if st.Misses != 1 {
		t.Errorf("registry misses = %d, want 1 (every request shares one compiled spec)", st.Misses)
	}
	if st.Hits < workers {
		t.Errorf("registry hits = %d, suspiciously low", st.Hits)
	}
}

func TestMetaHealthAndVars(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	db := compileSpec(t, h, dbDTD, dbXIC)

	w := do(t, h, "GET", "/v1/specs/"+db, "")
	if w.Code != http.StatusOK {
		t.Fatalf("meta: status %d", w.Code)
	}
	meta := decode[struct {
		Class       string   `json:"class"`
		Constraints []string `json:"constraints"`
	}](t, w)
	if len(meta.Constraints) != 3 || meta.Class == "" {
		t.Errorf("meta = %+v", meta)
	}

	if w := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("healthz: status %d", w.Code)
	}

	// Drive one cache hit, then read the counters back.
	do(t, h, "POST", "/v1/specs/"+db+"/consistent", `{"skip_witness": true}`)
	w = do(t, h, "GET", "/debug/vars", "")
	type tierVars struct {
		Size      int    `json:"size"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Errors    uint64 `json:"errors"`
	}
	vars := decode[struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
			Specs  int    `json:"specs"` // legacy roll-up: cached spec count
			Tiers  struct {
				Schemas tierVars `json:"schemas"`
				Specs   tierVars `json:"specs"`
			} `json:"tiers"`
		} `json:"cache"`
		Specs []struct {
			ID       string `json:"id"`
			SchemaID string `json:"schema_id"`
		} `json:"specs"`
		ImplCache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"impl_cache"`
		Solve struct {
			Solves          uint64  `json:"solves"`
			PresolveDecided uint64  `json:"presolve_decided"`
			PresolveBailed  *uint64 `json:"presolve_bailed"`
			FastPath        uint64  `json:"fastpath"`
			RowsIn          uint64  `json:"presolve_rows_in"`
			VarsFixed       uint64  `json:"vars_fixed"`
		} `json:"solve"`
		Requests map[string]int64 `json:"requests_total"`
	}](t, w)
	if vars.Cache.Misses != 1 || vars.Cache.Hits < 1 || vars.Cache.Specs != 1 {
		t.Errorf("legacy cache roll-up = %+v", vars.Cache)
	}
	// Per-tier counters: one schema compiled, one spec bound, both reused.
	if vars.Cache.Tiers.Specs.Size != 1 || vars.Cache.Tiers.Specs.Misses != 1 || vars.Cache.Tiers.Specs.Hits < 1 {
		t.Errorf("spec-tier vars = %+v", vars.Cache.Tiers.Specs)
	}
	if vars.Cache.Tiers.Schemas.Size != 1 || vars.Cache.Tiers.Schemas.Misses != 1 {
		t.Errorf("schema-tier vars = %+v", vars.Cache.Tiers.Schemas)
	}
	// The registry entry listing carries both fingerprint halves.
	if len(vars.Specs) != 1 || vars.Specs[0].ID != db || vars.Specs[0].SchemaID != db[:64] {
		t.Errorf("specs listing = %+v", vars.Specs)
	}
	if vars.Requests["consistent"] < 1 || vars.Requests["compile"] < 1 {
		t.Errorf("request counters = %+v", vars.Requests)
	}
	// The db specification is in the NP class, so its consistency check hit
	// the ILP oracle; the presolve layer must have seen its system.
	if vars.Solve.Solves < 1 {
		t.Errorf("solve counters not wired: %+v", vars.Solve)
	}
	if vars.Solve.RowsIn == 0 {
		t.Errorf("presolve saw no rows on an NP-class check: %+v", vars.Solve)
	}
	if vars.Solve.PresolveDecided+vars.Solve.FastPath+vars.Solve.VarsFixed == 0 {
		t.Errorf("presolve did nothing on the db encoding: %+v", vars.Solve)
	}
	// Its small multiplicities keep presolve's arithmetic inside int64.
	if vars.Solve.PresolveBailed == nil || *vars.Solve.PresolveBailed != 0 {
		t.Errorf("presolve_bailed missing or nonzero: %+v", vars.Solve)
	}
}

// TestSchemaEndpointsAndBindByFingerprint covers the two-stage serving
// flow: register the DTD once, then bind constraint sets against its
// fingerprint so no later compile touches the DTD again.
func TestSchemaEndpointsAndBindByFingerprint(t *testing.T) {
	h := newTestServer(t, config{}).handler()

	body, _ := json.Marshal(compileSchemaRequest{DTD: dbDTD})
	w := do(t, h, "POST", "/v1/schemas", string(body))
	if w.Code != http.StatusCreated {
		t.Fatalf("fresh schema compile: status %d: %s", w.Code, w.Body)
	}
	sch := decode[compileSchemaResponse](t, w)
	if want := xic.FingerprintDTD(dbDTD); sch.ID != want {
		t.Errorf("schema id = %q, want DTD fingerprint %q", sch.ID, want)
	}
	if sch.Cached || sch.CompileMs <= 0 || !sch.DTDConsistent {
		t.Errorf("fresh schema response = %+v", sch)
	}

	// Byte-identical resubmission hits the schema tier.
	if w = do(t, h, "POST", "/v1/schemas", string(body)); w.Code != http.StatusOK {
		t.Fatalf("cached schema compile: status %d", w.Code)
	}
	if resp := decode[compileSchemaResponse](t, w); !resp.Cached || resp.CompileMs != 0 {
		t.Errorf("cached schema response = %+v", resp)
	}

	// Schema metadata by fingerprint.
	w = do(t, h, "GET", "/v1/schemas/"+sch.ID, "")
	if w.Code != http.StatusOK {
		t.Fatalf("schema meta: status %d: %s", w.Code, w.Body)
	}
	meta := decode[struct {
		Root  string `json:"root"`
		Types int    `json:"types"`
	}](t, w)
	if meta.Root != "db" || meta.Types != 3 {
		t.Errorf("schema meta = %+v", meta)
	}

	// Bind a constraint set by fingerprint: no DTD source in the request,
	// no DTD compilation on the server (compile_ms stays zero).
	bind, _ := json.Marshal(compileRequest{DTDID: sch.ID, Constraints: dbXIC})
	w = do(t, h, "POST", "/v1/specs", string(bind))
	if w.Code != http.StatusCreated {
		t.Fatalf("bind by fingerprint: status %d: %s", w.Code, w.Body)
	}
	spec := decode[compileResponse](t, w)
	if spec.SchemaID != sch.ID || spec.Cached || spec.CompileMs != 0 {
		t.Errorf("bind response = %+v, want schema_id %q and zero compile_ms", spec, sch.ID)
	}
	if spec.ID != sch.ID+xic.FingerprintConstraints(dbXIC) {
		t.Errorf("spec id %q is not schema fingerprint + constraints fingerprint", spec.ID)
	}

	// The bound spec is indistinguishable from a source-compiled one: it
	// serves decisions, and a full-source compile of the same pair hits it.
	w = do(t, h, "POST", "/v1/specs/"+spec.ID+"/consistent", `{"skip_witness": true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("consistent on bound spec: status %d: %s", w.Code, w.Body)
	}
	if res := decode[consistentResult](t, w); !res.Consistent {
		t.Error("db specification must be consistent")
	}
	full, _ := json.Marshal(compileRequest{DTD: dbDTD, Constraints: dbXIC})
	if w = do(t, h, "POST", "/v1/specs", string(full)); w.Code != http.StatusOK {
		t.Errorf("full-source recompile of a bound pair: status %d, want cached 200", w.Code)
	}

	// A second set binds against the same schema without recompiling it.
	bind2, _ := json.Marshal(compileRequest{DTDID: sch.ID, Constraints: "emp.id -> emp"})
	w = do(t, h, "POST", "/v1/specs", string(bind2))
	if w.Code != http.StatusCreated {
		t.Fatalf("second bind: status %d: %s", w.Code, w.Body)
	}
	if resp := decode[compileResponse](t, w); resp.CompileMs != 0 {
		t.Errorf("second bind recompiled the schema: %+v", resp)
	}

	// Unknown fingerprints are a 404, mutual exclusion a 400.
	bad, _ := json.Marshal(compileRequest{DTDID: strings.Repeat("0", 64), Constraints: dbXIC})
	if w = do(t, h, "POST", "/v1/specs", string(bad)); w.Code != http.StatusNotFound {
		t.Errorf("unknown dtd_id: status %d, want 404: %s", w.Code, w.Body)
	}
	both, _ := json.Marshal(compileRequest{DTD: dbDTD, DTDID: sch.ID, Constraints: dbXIC})
	if w = do(t, h, "POST", "/v1/specs", string(both)); w.Code != http.StatusBadRequest {
		t.Errorf("dtd and dtd_id together: status %d, want 400", w.Code)
	}

	// Bad constraints against a valid schema fail with the usual taxonomy.
	badCons, _ := json.Marshal(compileRequest{DTDID: sch.ID, Constraints: "nosuch.a -> nosuch"})
	if w = do(t, h, "POST", "/v1/specs", string(badCons)); w.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad constraints by fingerprint: status %d, want 422: %s", w.Code, w.Body)
	}
}

// TestImplicationMemoAcrossRequests drives the same implication query twice
// and reads the schema-wide memo counters back through the meta endpoint.
func TestImplicationMemoAcrossRequests(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	db := compileSpec(t, h, dbDTD, dbXIC)
	for i := 0; i < 2; i++ {
		w := do(t, h, "POST", "/v1/specs/"+db+"/implies", `{"query": "emp.id -> emp"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("implies #%d: status %d: %s", i, w.Code, w.Body)
		}
		if res := decode[impliesResult](t, w); !res.Implied {
			t.Fatalf("implies #%d: member of Σ not implied", i)
		}
	}
	w := do(t, h, "GET", "/v1/schemas/"+db[:64], "")
	if w.Code != http.StatusOK {
		t.Fatalf("schema meta: status %d: %s", w.Code, w.Body)
	}
	meta := decode[struct {
		ImplCache struct {
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Entries int    `json:"entries"`
		} `json:"impl_cache"`
	}](t, w)
	if meta.ImplCache.Hits < 1 || meta.ImplCache.Misses < 1 || meta.ImplCache.Entries < 1 {
		t.Errorf("implication memo idle after repeated query: %+v", meta.ImplCache)
	}
}

// TestSolverRequestOptions: the per-request solver knobs tune the check
// without changing verdicts, nonsense values are a 400, and the new
// kernel/parallelism counters plus the effective defaults appear under
// /debug/vars.
func TestSolverRequestOptions(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	db := compileSpec(t, h, dbDTD, dbXIC)
	teachers := compileSpec(t, h, teachersDTD, teachersXIC)

	// Tuned requests keep their verdicts: parallel search on the
	// inconsistent teachers spec, exact-kernel solve on the consistent db
	// spec.
	w := do(t, h, "POST", "/v1/specs/"+teachers+"/consistent",
		`{"solver_parallelism": 4, "skip_witness": true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("parallel consistent: status %d: %s", w.Code, w.Body)
	}
	if res := decode[consistentResult](t, w); res.Consistent {
		t.Error("teachers specification must stay inconsistent under parallel search")
	}
	w = do(t, h, "POST", "/v1/specs/"+db+"/consistent", `{"fast_tableau": false}`)
	if w.Code != http.StatusOK {
		t.Fatalf("exact consistent: status %d: %s", w.Code, w.Body)
	}
	if res := decode[consistentResult](t, w); !res.Consistent {
		t.Error("db specification must stay consistent on the exact kernel")
	}
	w = do(t, h, "POST", "/v1/specs/"+db+"/implies",
		`{"query": "emp.id -> emp", "solver_parallelism": 2, "fast_tableau": false}`)
	if w.Code != http.StatusOK {
		t.Fatalf("tuned implies: status %d: %s", w.Code, w.Body)
	}
	if res := decode[impliesResult](t, w); !res.Implied {
		t.Error("member of Σ must be implied under tuned options")
	}

	// Nonsense values are rejected up front, before any solving.
	for _, body := range []string{
		`{"solver_parallelism": -1}`,
		`{"solver_parallelism": 65}`,
		`{"solver_parallelism": "many"}`,
		`{"fast_tableau": "yes"}`,
	} {
		if w := do(t, h, "POST", "/v1/specs/"+db+"/consistent", body); w.Code != http.StatusBadRequest {
			t.Errorf("consistent %s: status %d, want 400", body, w.Code)
		}
		if w := do(t, h, "POST", "/v1/specs/"+db+"/implies", body); w.Code != http.StatusBadRequest {
			t.Errorf("implies %s: status %d, want 400", body, w.Code)
		}
	}

	// The solve vars report the kernel split and the effective defaults.
	w = do(t, h, "GET", "/debug/vars", "")
	vars := decode[struct {
		Solve struct {
			Solves         uint64 `json:"solves"`
			Pivots         uint64 `json:"pivots"`
			FastPivots     uint64 `json:"fast_pivots"`
			ExactFallbacks uint64 `json:"exact_fallbacks"`
			Steals         uint64 `json:"steals"`
			Options        struct {
				MaxNodes          int  `json:"max_nodes"`
				SolverParallelism int  `json:"solver_parallelism"`
				Presolve          bool `json:"presolve"`
				FastTableau       bool `json:"fast_tableau"`
				SkipWitness       bool `json:"skip_witness"`
			} `json:"options"`
		} `json:"solve"`
	}](t, w)
	if vars.Solve.Solves < 3 {
		t.Errorf("solve counters = %+v, want at least the three tuned checks", vars.Solve)
	}
	o := vars.Solve.Options
	if o.MaxNodes != xic.DefaultMaxNodes || o.SolverParallelism != 0 || !o.Presolve || !o.FastTableau || o.SkipWitness {
		t.Errorf("effective options = %+v", o)
	}
}

// TestSolveCountersSurviveEviction: the /debug/vars solver counters are
// process totals, so a spec evicted from the registry keeps its counts.
func TestSolveCountersSurviveEviction(t *testing.T) {
	h := newTestServer(t, config{MaxSpecs: 1}).handler()
	solves := func() uint64 {
		t.Helper()
		w := do(t, h, "GET", "/debug/vars", "")
		return decode[struct {
			Solve struct {
				Solves uint64 `json:"solves"`
			} `json:"solve"`
		}](t, w).Solve.Solves
	}

	a := compileSpec(t, h, teachersDTD, teachersXIC)
	if w := do(t, h, "POST", "/v1/specs/"+a+"/consistent", `{"skip_witness": true}`); w.Code != http.StatusOK {
		t.Fatalf("consistent: status %d: %s", w.Code, w.Body)
	}
	before := solves()
	if before == 0 {
		t.Fatal("a consistency check reached the solver but solve.solves is 0")
	}
	compileSpec(t, h, dbDTD, dbXIC) // evicts a from the one-entry spec tier
	if w := do(t, h, "GET", "/v1/specs/"+a, ""); w.Code != http.StatusNotFound {
		t.Fatalf("spec a was not evicted: status %d", w.Code)
	}
	if after := solves(); after < before {
		t.Errorf("solve.solves fell from %d to %d when spec a was evicted", before, after)
	}
}

// TestSessionLifecycle drives a document session end-to-end through the
// HTTP surface: open, inspect, edit (accepted and rejected), fetch the
// document, close.
func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(t, config{})
	h := s.handler()

	compile, _ := json.Marshal(map[string]string{"dtd": dbDTD, "constraints": dbXIC})
	id := decode[compileResponse](t, do(t, h, "POST", "/v1/specs", string(compile))).ID

	// An invalid document is refused with the violation report.
	w := do(t, h, "POST", "/v1/specs/"+id+"/sessions", dbDocBad)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid open: status %d: %s", w.Code, w.Body)
	}

	// A valid one opens.
	w = do(t, h, "POST", "/v1/specs/"+id+"/sessions", dbDocOK)
	if w.Code != http.StatusCreated {
		t.Fatalf("open: status %d: %s", w.Code, w.Body)
	}
	open := decode[openSessionResponse](t, w)
	if open.SessionID == "" || open.Elements != 4 {
		t.Fatalf("open response %+v", open)
	}

	w = do(t, h, "GET", "/v1/sessions/"+open.SessionID, "")
	if w.Code != http.StatusOK {
		t.Fatalf("meta: status %d: %s", w.Code, w.Body)
	}

	// A batch: one accepted insert, then a duplicate-key insert that is
	// rejected with a delta report, leaving the first applied.
	ops, _ := json.Marshal(map[string]any{"ops": []map[string]any{
		{"kind": "insert", "path": "db", "index": 3, "xml": `<dept id="d2"/>`},
		{"kind": "insert", "path": "db", "index": 4, "xml": `<dept id="d2"/>`},
	}})
	w = do(t, h, "POST", "/v1/sessions/"+open.SessionID+"/edits", string(ops))
	if w.Code != http.StatusOK {
		t.Fatalf("edits: status %d: %s", w.Code, w.Body)
	}
	res := decode[editsResponse](t, w)
	if res.Applied != 1 || res.Rejected == nil || res.Rejected.Index != 1 {
		t.Fatalf("edits response %+v", res)
	}
	if len(res.Rejected.Violations) == 0 {
		t.Fatalf("rejection carries no violations: %+v", res.Rejected)
	}

	// The served document reflects the accepted edit and revalidates.
	w = do(t, h, "GET", "/v1/sessions/"+open.SessionID+"/document", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `id="d2"`) {
		t.Fatalf("document: status %d: %s", w.Code, w.Body)
	}
	vw := do(t, h, "POST", "/v1/specs/"+id+"/validate", w.Body.String())
	if vr := decode[validateResponse](t, vw); !vr.OK {
		t.Fatalf("session document does not revalidate: %s", vw.Body)
	}

	// An edit rejected for a dangling reference carries a repair hint.
	ops, _ = json.Marshal(map[string]any{"ops": []map[string]any{
		{"kind": "setattr", "path": "db/emp[0]", "attr": "works_in", "value": "d9"},
	}})
	res = decode[editsResponse](t, do(t, h, "POST", "/v1/sessions/"+open.SessionID+"/edits", string(ops)))
	if res.Rejected == nil || res.Rejected.Repair == nil {
		t.Fatalf("dangling-ref edit: %+v", res)
	}

	// Close, then the handle is gone.
	if w = do(t, h, "DELETE", "/v1/sessions/"+open.SessionID, ""); w.Code != http.StatusNoContent {
		t.Fatalf("close: status %d: %s", w.Code, w.Body)
	}
	if w = do(t, h, "GET", "/v1/sessions/"+open.SessionID, ""); w.Code != http.StatusNotFound {
		t.Fatalf("after close: status %d: %s", w.Code, w.Body)
	}
}

// TestSessionEdgeCases covers the session endpoints' request-level errors
// and the expvar sessions block.
func TestSessionEdgeCases(t *testing.T) {
	s := newTestServer(t, config{})
	h := s.handler()

	compile, _ := json.Marshal(map[string]string{"dtd": dbDTD, "constraints": dbXIC})
	id := decode[compileResponse](t, do(t, h, "POST", "/v1/specs", string(compile))).ID

	// Malformed XML is a 4xx, not a session.
	if w := do(t, h, "POST", "/v1/specs/"+id+"/sessions", "<db><oops"); w.Code/100 != 4 {
		t.Fatalf("malformed open: status %d: %s", w.Code, w.Body)
	}
	// Unknown session handles are 404 on every verb.
	for _, c := range [][2]string{
		{"GET", "/v1/sessions/zz"},
		{"GET", "/v1/sessions/zz/document"},
		{"POST", "/v1/sessions/zz/edits"},
		{"DELETE", "/v1/sessions/zz"},
	} {
		if w := do(t, h, c[0], c[1], `{"ops":[{"kind":"delete","path":"db"}]}`); w.Code != http.StatusNotFound {
			t.Fatalf("%s %s: status %d: %s", c[0], c[1], w.Code, w.Body)
		}
	}
	// An empty batch is a 400.
	w := do(t, h, "POST", "/v1/specs/"+id+"/sessions", dbDocOK)
	open := decode[openSessionResponse](t, w)
	if w := do(t, h, "POST", "/v1/sessions/"+open.SessionID+"/edits", `{}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", w.Code, w.Body)
	}
	// The expvar block reports the live session.
	vars := decode[map[string]any](t, do(t, h, "GET", "/debug/vars", ""))
	sess, ok := vars["sessions"].(map[string]any)
	if !ok || sess["size"].(float64) != 1 || sess["opens"].(float64) != 1 {
		t.Fatalf("expvar sessions block: %v", vars["sessions"])
	}
}

// TestSessionLRUCapacity: opening past -max-sessions evicts the oldest
// handle and reports it to the opener.
func TestSessionLRUCapacity(t *testing.T) {
	s := newTestServer(t, config{MaxSessions: 2})
	h := s.handler()

	compile, _ := json.Marshal(map[string]string{"dtd": dbDTD, "constraints": dbXIC})
	id := decode[compileResponse](t, do(t, h, "POST", "/v1/specs", string(compile))).ID

	var ids []string
	for i := 0; i < 3; i++ {
		open := decode[openSessionResponse](t, do(t, h, "POST", "/v1/specs/"+id+"/sessions", dbDocOK))
		ids = append(ids, open.SessionID)
		if i < 2 && len(open.Evicted) != 0 {
			t.Fatalf("open %d evicted %v", i, open.Evicted)
		}
		if i == 2 && (len(open.Evicted) != 1 || open.Evicted[0] != ids[0]) {
			t.Fatalf("open 2 evicted %v, want [%s]", open.Evicted, ids[0])
		}
	}
	if w := do(t, h, "GET", "/v1/sessions/"+ids[0], ""); w.Code != http.StatusNotFound {
		t.Fatalf("evicted session still resolves: %d", w.Code)
	}
	if w := do(t, h, "GET", "/v1/sessions/"+ids[1], ""); w.Code != http.StatusOK {
		t.Fatalf("live session lost: %d", w.Code)
	}
}

// TestHandlerPanicRecovered: a handler behind count and withSession that
// panics with an index out of range answers 500 with kind internal, counts the panic by
// endpoint, drops the session it was editing, and leaves the server
// serving. A handler that panics after writing keeps its status.
func TestHandlerPanicRecovered(t *testing.T) {
	s := newTestServer(t, config{})
	mux := s.handler().(*http.ServeMux)
	mux.HandleFunc("POST /v1/sessions/{sid}/boom", s.count("boom", s.withSession(
		func(w http.ResponseWriter, r *http.Request, h *sessionHandle) {
			var slots []int // an out-of-range slot, as a corrupt index would give
			s.writeJSON(w, http.StatusOK, slots[len(r.URL.Path)])
		})))
	mux.HandleFunc("POST /v1/late", s.count("late", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
		panic("late")
	}))
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	compile, _ := json.Marshal(map[string]string{"dtd": dbDTD, "constraints": dbXIC})
	id := decode[compileResponse](t, do(t, mux, "POST", "/v1/specs", string(compile))).ID
	sid := decode[openSessionResponse](t, do(t, mux, "POST", "/v1/specs/"+id+"/sessions", dbDocOK)).SessionID

	w := do(t, mux, "POST", "/v1/sessions/"+sid+"/boom", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d: %s", w.Code, w.Body)
	}
	if e := decode[map[string]errorBody](t, w)["error"]; e.Kind != "internal" || e.Status != http.StatusInternalServerError {
		t.Fatalf("panicking handler: error body %+v", e)
	}
	if w := do(t, mux, "GET", "/v1/sessions/"+sid, ""); w.Code != http.StatusNotFound {
		t.Fatalf("session survived its handler's panic: status %d", w.Code)
	}
	if w := do(t, mux, "POST", "/v1/late", ""); w.Code != http.StatusOK {
		t.Fatalf("panic after writing: status %d, want the handler's 200", w.Code)
	}
	vars := decode[struct {
		Panics map[string]int64 `json:"panics"`
	}](t, do(t, mux, "GET", "/debug/vars", ""))
	if vars.Panics["boom"] != 1 || vars.Panics["late"] != 1 || len(vars.Panics) != 2 {
		t.Fatalf("panic counters = %v", vars.Panics)
	}
	// The server still serves, sessions included.
	if w := do(t, mux, "POST", "/v1/specs/"+id+"/sessions", dbDocOK); w.Code != http.StatusCreated {
		t.Fatalf("open after panics: status %d: %s", w.Code, w.Body)
	}
}

// TestEditPathIndexOverflow: a path index past the int range does not
// resolve; the edit is rejected in a 200 and changes nothing.
func TestEditPathIndexOverflow(t *testing.T) {
	h := newTestServer(t, config{}).handler()
	compile, _ := json.Marshal(map[string]string{"dtd": dbDTD, "constraints": dbXIC})
	id := decode[compileResponse](t, do(t, h, "POST", "/v1/specs", string(compile))).ID
	sid := decode[openSessionResponse](t, do(t, h, "POST", "/v1/specs/"+id+"/sessions", dbDocOK)).SessionID
	before := do(t, h, "GET", "/v1/sessions/"+sid+"/document", "").Body.String()
	for _, idx := range []string{"18446744073709551616", "18446744073709551617"} {
		ops, _ := json.Marshal(map[string]any{"ops": []map[string]any{
			{"kind": "setattr", "path": "db/emp[" + idx + "]", "attr": "id", "value": "e9"},
		}})
		w := do(t, h, "POST", "/v1/sessions/"+sid+"/edits", string(ops))
		if w.Code != http.StatusOK {
			t.Fatalf("index %s: status %d: %s", idx, w.Code, w.Body)
		}
		res := decode[editsResponse](t, w)
		if res.Applied != 0 || res.Rejected == nil || len(res.Rejected.Violations) != 1 ||
			!strings.Contains(res.Rejected.Violations[0].Msg, "does not resolve") {
			t.Fatalf("index %s: %+v", idx, res)
		}
	}
	if after := do(t, h, "GET", "/v1/sessions/"+sid+"/document", "").Body.String(); after != before {
		t.Fatalf("rejected edits changed the document:\n%s", after)
	}
}

// TestOversizeBodyClosesConnection: behind count's response wrapper, an
// oversized body still makes net/http close the connection after the
// 413 rather than drain the rest of the body.
func TestOversizeBodyClosesConnection(t *testing.T) {
	s := newTestServer(t, config{MaxBody: 64})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/specs", "application/json", strings.NewReader(strings.Repeat(" ", 1024)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if !resp.Close {
		t.Fatal("the server keeps the connection of an oversized request open")
	}
}
