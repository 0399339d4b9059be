package main

import (
	"errors"
	"net/http"

	"xic"
	"xic/internal/registry"
)

// sessionHandle is what the store keeps per live session: the engine
// handle plus the spec id it was opened under, for metadata.
type sessionHandle struct {
	sess   *xic.Session
	specID string
}

// ---- POST /v1/specs/{id}/sessions ----------------------------------------

// openSessionResponse returns the handle for the edit endpoints.
type openSessionResponse struct {
	SessionID string `json:"session_id"`
	SpecID    string `json:"spec_id"`
	Elements  int    `json:"elements"`
	// Evicted lists sessions dropped to admit this one, so a client
	// juggling many documents learns immediately which handles died.
	Evicted []string `json:"evicted,omitempty"`
}

// handleOpenSession ingests the request body — the XML document itself —
// into a retained session under the spec. Invalid documents get 422 with
// the full violation report; a session only ever holds a valid document.
func (s *server) handleOpenSession(w http.ResponseWriter, r *http.Request, spec *xic.Spec) {
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
	sess, err := spec.OpenSession(ctx, body) //xic:ignore httpguard MaxDoc=0 opts out of the body cap by operator choice, matching /validate
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeStatusError(w, http.StatusRequestEntityTooLarge, "request",
				"document exceeds %d bytes", mbe.Limit)
			return
		}
		var ide *xic.InvalidDocumentError
		if errors.As(err, &ide) {
			s.writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
				"ok":         false,
				"elements":   ide.Report.Elements,
				"violations": violationsJSON(ide.Report.Violations),
			})
			return
		}
		s.writeError(w, err)
		return
	}
	id := registry.NewSessionID()
	evicted := s.sessions.Put(id, &sessionHandle{sess: sess, specID: r.PathValue("id")})
	s.writeJSON(w, http.StatusCreated, openSessionResponse{
		SessionID: id,
		SpecID:    r.PathValue("id"),
		Elements:  sess.Elements(),
		Evicted:   evicted,
	})
}

// withSession resolves the {sid} path value against the session store.
func (s *server) withSession(h func(http.ResponseWriter, *http.Request, *sessionHandle)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sid := r.PathValue("sid")
		v, ok := s.sessions.Get(sid)
		if !ok {
			s.writeStatusError(w, http.StatusNotFound, "request",
				"no session %q: open one via POST /v1/specs/{id}/sessions (sessions are evicted after idling or under memory pressure)", sid)
			return
		}
		h(w, r, v.(*sessionHandle))
	}
}

// ---- POST /v1/sessions/{sid}/edits ---------------------------------------

// editsRequest is a batch of edit operations, applied in order with the
// engine's first-rejection-stops semantics.
type editsRequest struct {
	Ops []xic.EditOp `json:"ops"`
}

type rejectedJSON struct {
	Index      int             `json:"index"`
	Violations []violationJSON `json:"violations"`
	Repair     *repairJSON     `json:"repair,omitempty"`
}

type repairJSON struct {
	Msg string      `json:"msg"`
	Op  *xic.EditOp `json:"op,omitempty"`
}

type editsResponse struct {
	Applied  int           `json:"applied"`
	Elements int           `json:"elements"`
	Rejected *rejectedJSON `json:"rejected,omitempty"`
}

// handleEdits applies a batch of edits to the session. The response is
// 200 whether or not an op was rejected: rejection is the API working —
// the delta report and repair hint are the answer, and the document is
// untouched past the last accepted op.
func (s *server) handleEdits(w http.ResponseWriter, r *http.Request, h *sessionHandle) {
	var req editsRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		s.writeStatusError(w, http.StatusBadRequest, "request", `missing "ops" field`)
		return
	}
	res := h.sess.Apply(req.Ops...)
	resp := editsResponse{Applied: res.Applied, Elements: res.Elements}
	if rej := res.Rejected; rej != nil {
		rj := &rejectedJSON{Index: rej.Index, Violations: violationsJSON(rej.Report.Violations)}
		if rej.Repair != nil {
			rj.Repair = &repairJSON{Msg: rej.Repair.Msg, Op: rej.Repair.Op}
		}
		resp.Rejected = rj
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ---- GET /v1/sessions/{sid} ----------------------------------------------

func (s *server) handleSessionMeta(w http.ResponseWriter, r *http.Request, h *sessionHandle) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"session_id": r.PathValue("sid"),
		"spec_id":    h.specID,
		"ok":         true, // the session invariant: the document is valid
		"elements":   h.sess.Elements(),
	})
}

// ---- GET /v1/sessions/{sid}/document -------------------------------------

// handleSessionDocument serializes the session's current document — the
// round-trip complement of the open endpoint.
func (s *server) handleSessionDocument(w http.ResponseWriter, r *http.Request, h *sessionHandle) {
	s.statuses.Add("200", 1)
	w.Header().Set("Content-Type", "application/xml")
	w.Write([]byte(h.sess.Document())) //nolint:errcheck // response write failure has no recovery
}

// ---- DELETE /v1/sessions/{sid} -------------------------------------------

func (s *server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	if !s.sessions.Delete(sid) {
		s.writeStatusError(w, http.StatusNotFound, "request", "no session %q", sid)
		return
	}
	s.statuses.Add("204", 1)
	w.WriteHeader(http.StatusNoContent)
}

// violationsJSON maps a violation slice onto the wire shape shared with
// /validate.
func violationsJSON(vs []xic.Violation) []violationJSON {
	out := make([]violationJSON, 0, len(vs))
	for _, v := range vs {
		vj := violationJSON{Path: v.Path, Line: v.Line, Offset: v.Offset, Msg: v.Msg}
		if v.Constraint != nil {
			vj.Constraint = v.Constraint.String()
		}
		out = append(out, vj)
	}
	return out
}
