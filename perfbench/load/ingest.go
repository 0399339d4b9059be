package main

import (
	"encoding/json"
	"net/http"
	"time"

	"xic/perfbench/gen"
)

// ingest drives document traffic: streaming validation, and session
// opens each followed by a close.
type ingest struct {
	in  *gen.Ingest
	ids []string
}

func newIngest(seed uint64) *ingest { return &ingest{in: gen.NewIngest(seed)} }

type validateResp struct {
	OK         bool              `json:"ok"`
	Elements   int               `json:"elements"`
	Violations []json.RawMessage `json:"violations"`
}

func (w *ingest) setup(s *server) error {
	c := s.newClient()
	w.ids = w.ids[:0]
	for _, sp := range w.in.Specs {
		id, err := compileSpec(c, sp.Schema.DTD(), gen.Source(sp.Sigma))
		if err != nil {
			return err
		}
		w.ids = append(w.ids, id)
	}
	return nil
}

func (w *ingest) loop(c int, cl *client, deadline time.Time, rec *recorder) {
	ops := w.in.Clients[c]
	for i := 0; time.Now().Before(deadline); i++ {
		op := ops[i%len(ops)]
		rec.attempted++
		doc := &w.in.Docs[op.Doc]
		if op.Open {
			w.open(cl, op.Doc, doc, rec)
		} else {
			w.validate(cl, op.Doc, doc, rec)
		}
	}
}

func (w *ingest) validate(cl *client, i int, doc *gen.Doc, rec *recorder) {
	status, resp, d, err := cl.do("validate", "POST", "/v1/specs/"+w.ids[doc.Spec]+"/validate", doc.XML)
	if err != nil || status != http.StatusOK {
		rec.fail("validate doc %d: status %d, err %v: %.200s", i, status, err, resp)
		return
	}
	var r validateResp
	if err := json.Unmarshal(resp, &r); err != nil {
		rec.fail("validate doc %d: %v", i, err)
		return
	}
	if r.OK != (doc.Violations == 0) || len(r.Violations) != doc.Violations || r.Elements != doc.Elements {
		rec.fail("validate doc %d (%s): ok=%v violations=%d elements=%d, generator recorded %d violations, %d elements",
			i, doc.Corruption, r.OK, len(r.Violations), r.Elements, doc.Violations, doc.Elements)
		return
	}
	rec.ok("validate", d, len(doc.XML))
}

func (w *ingest) open(cl *client, i int, doc *gen.Doc, rec *recorder) {
	status, resp, d, err := cl.do("session_open", "POST", "/v1/specs/"+w.ids[doc.Spec]+"/sessions", doc.XML)
	if err != nil {
		rec.fail("open doc %d: %v", i, err)
		return
	}
	if doc.Violations > 0 {
		var r validateResp
		if status != http.StatusUnprocessableEntity || json.Unmarshal(resp, &r) != nil ||
			len(r.Violations) != doc.Violations || r.Elements != doc.Elements {
			rec.fail("open invalid doc %d (%s): status %d: %.200s", i, doc.Corruption, status, resp)
			return
		}
		rec.ok("open", d, len(doc.XML))
		return
	}
	var r struct {
		SessionID string `json:"session_id"`
		Elements  int    `json:"elements"`
	}
	if status != http.StatusCreated || json.Unmarshal(resp, &r) != nil || r.Elements != doc.Elements {
		rec.fail("open doc %d: status %d: %.200s", i, status, resp)
		return
	}
	rec.ok("open", d, len(doc.XML))
	if status, _, _, err := cl.do("session_close", "DELETE", "/v1/sessions/"+r.SessionID, nil); err != nil || status != http.StatusNoContent {
		rec.fail("close session of doc %d: status %d, err %v", i, status, err)
	}
}

func (w *ingest) finish(*client, *recorder) {}

// shape: validations are the main requests, session opens the side ones.
// A run answers only a few hundred documents, so the tail is p95 and
// every metric is taken over the whole run.
func (w *ingest) shape() shape {
	return shape{all: []string{"validate", "open"}, main: []string{"validate"}, side: []string{"open"}, tail: 0.95, setups: 15}
}

func (w *ingest) compareTrace(*traceResult) int { return 0 }
