package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"xic/perfbench/gen"
)

// edit drives document sessions: each client edits its own ~1e5-element
// document, opened during setup, one op per request.
type edit struct {
	in   *gen.Edit
	id   string
	sids []string
	sent [clients]int // edits each client sent, warm-up included
}

func newEdit(seed uint64) *edit { return &edit{in: gen.NewEdit(seed, clients)} }

func (w *edit) setup(s *server) error {
	c := s.newClient()
	id, err := compileSpec(c, w.in.Spec.Schema.DTD(), gen.Source(w.in.Spec.Sigma))
	if err != nil {
		return err
	}
	w.id, w.sids = id, w.sids[:0]
	for i, doc := range w.in.Docs {
		status, resp, _, err := c.do("session_open", "POST", "/v1/specs/"+id+"/sessions", doc.XML)
		if err != nil {
			return err
		}
		var r struct {
			SessionID string `json:"session_id"`
			Elements  int    `json:"elements"`
		}
		if status != http.StatusCreated || json.Unmarshal(resp, &r) != nil || r.Elements != doc.Elements {
			return fmt.Errorf("open edit document %d: status %d: %.200s", i, status, resp)
		}
		w.sids = append(w.sids, r.SessionID)
	}
	return nil
}

type editsResp struct {
	Applied  int `json:"applied"`
	Elements int `json:"elements"`
	Rejected *struct {
		Repair *struct {
			Op json.RawMessage `json:"op"`
		} `json:"repair"`
	} `json:"rejected"`
}

func (w *edit) loop(c int, cl *client, deadline time.Time, rec *recorder) {
	script, path := w.in.Scripts[c], "/v1/sessions/"+w.sids[c]+"/edits"
	for ; time.Now().Before(deadline); w.sent[c]++ {
		st := &script[w.sent[c]%len(script)]
		rec.attempted++
		status, resp, d, err := cl.do("session_edits", "POST", path, st.Body)
		if err != nil || status != http.StatusOK {
			rec.fail("edit %s: status %d, err %v: %.200s", st.Op.Path, status, err, resp)
			continue
		}
		var r editsResp
		if err := json.Unmarshal(resp, &r); err != nil {
			rec.fail("edit: %v", err)
			continue
		}
		want := 0
		if st.Applied {
			want = 1
		}
		switch {
		case r.Applied != want || r.Elements != st.Elements:
			rec.fail("%s %s: applied %d, %d elements; shadow model says %d, %d", st.Class, st.Op.Path, r.Applied, r.Elements, want, st.Elements)
			continue
		case !st.Applied && (r.Rejected == nil || r.Rejected.Repair == nil || len(r.Rejected.Repair.Op) == 0):
			rec.fail("rejected %s %s came without a repair op: %.200s", st.Op.Kind, st.Op.Path, resp)
			continue
		}
		class := "point"
		switch st.Class {
		case gen.ClassInsert, gen.ClassDelete:
			class = "structural"
		case gen.ClassReject:
			class = "reject"
		}
		rec.ok(class, d, len(st.Body))
	}
}

// finish fetches each session's final document, which must match the
// shadow model's size, pass the benchmark's own oracle and validate on
// xicd, then closes the session.
func (w *edit) finish(cl *client, rec *recorder) {
	for c, sid := range w.sids {
		status, doc, _, err := cl.do("session_document", "GET", "/v1/sessions/"+sid+"/document", nil)
		if err != nil || status != http.StatusOK {
			rec.fail("final document of session %d: status %d, err %v", c, status, err)
			continue
		}
		want := w.in.Docs[c].Elements
		if n := w.sent[c]; n > 0 {
			script := w.in.Scripts[c]
			want = script[(n-1)%len(script)].Elements
		}
		if n, elems, err := w.in.Spec.Schema.Check(bytes.NewReader(doc), w.in.Spec.Sigma); err != nil || n != 0 || elems != want {
			rec.fail("final document of session %d: %d problems, %d elements (shadow: %d), %v", c, n, elems, want, err)
		}
		status, resp, _, err := cl.do("validate", "POST", "/v1/specs/"+w.id+"/validate", doc)
		var r validateResp
		if err != nil || status != http.StatusOK || json.Unmarshal(resp, &r) != nil || !r.OK || r.Elements != want {
			rec.fail("final document of session %d does not validate: status %d: %.200s", c, status, resp)
		}
		if status, _, _, err := cl.do("session_close", "DELETE", "/v1/sessions/"+sid, nil); err != nil || status != http.StatusNoContent {
			rec.fail("close session %d: status %d, err %v", c, status, err)
		}
	}
}

// shape: every edit is a main request; inserts and deletes are also the
// side ones.
func (w *edit) shape() shape {
	all := []string{"point", "structural", "reject"}
	return shape{all: all, main: all, side: []string{"structural"}, tail: 0.99, setups: 5}
}

func (w *edit) compareTrace(*traceResult) int { return 0 }
