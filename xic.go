// Package xic is a complete implementation of Fan & Libkin's "On XML
// Integrity Constraints in the Presence of DTDs" (PODS 2001; JACM 49(3),
// 2002): static validation of XML specifications that combine a DTD with
// keys, foreign keys and inclusion constraints.
//
// A specification is consistent when some finite XML document both conforms
// to the DTD and satisfies every constraint. Unlike the relational setting
// — where any key/foreign-key specification is trivially satisfiable — DTDs
// impose cardinality constraints that interact with keys and foreign keys,
// so consistency is a real question: the paper's own teacher example
// (Section 1) pairs an innocuous-looking DTD with three one-attribute
// constraints and has no satisfying document at all.
//
// The package decides, with the complexity the paper proves optimal:
//
//   - consistency of a DTD alone — linear time;
//   - consistency of keys (any arity) — linear time;
//   - implication of keys by keys — linear time;
//   - consistency of unary keys, foreign keys, inclusion constraints and
//     their negations — NP-complete, via the paper's encoding into linear
//     integer programming, solved exactly;
//   - implication of unary keys, inclusion constraints and foreign keys —
//     coNP-complete, by refutation;
//   - multi-attribute keys mixed with foreign keys — undecidable
//     (Theorem 3.1); such sets are rejected with ErrUndecidable.
//
// Positive answers come with verified witness documents; failed
// implications come with counterexample documents. Dynamic validation
// (checking one concrete document against a DTD and constraints) is also
// provided, in two modes: tree-based (Spec.Validate) and single-pass
// streaming (Spec.ValidateStream), whose memory is bounded by the
// constraint indexes rather than the document size.
//
// # The two-stage Schema/Spec engine
//
// The API is designed around the paper's fixed-DTD setting (Corollaries
// 4.11 and 5.5): one schema, many requests. It splits compilation into
// two stages mirroring the reduction, where the cardinality system Ψ(D)
// is determined by the DTD alone and constraint sets only append rows:
//
//	schema, err := xic.CompileDTD(d)   // heavy, once per DTD
//	specA, err := schema.Bind(sigmaA...) // cheap, per constraint set
//	specB, err := schema.Bind(sigmaB...)
//
// CompileDTD does all per-DTD work — DTD validation, Section 4.1
// simplification, the cardinality-encoding template, the conformance
// automata — and Bind attaches a constraint set (validation and
// classification only), sharing the compiled engine. Compile is their
// composition, the simple path when one DTD carries one constraint set;
// both return an immutable Spec whose methods are safe for concurrent use
// and take a context.Context that bounds the NP search:
//
//	spec, err := xic.Compile(d, sigma...)
//	if err != nil { … }
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, err := spec.Consistent(ctx)
//
// Batch entry points (Spec.ConsistentAll, Spec.ImpliesAll) fan many
// constraint sets out over a bounded worker pool, all sharing the compiled
// encoding, and settled implication verdicts are memoized on the Schema so
// repeated queries against a stable schema are pure lookups. Errors are
// structured: *ParseError carries line/offset positions, *SpecError names
// the failed compilation stage, and cancelled checks match both
// ErrCanceled and the context's error under errors.Is.
//
// # Quick start
//
//	d, _ := xic.ParseDTD(`
//	<!ELEMENT teachers (teacher+)>
//	<!ELEMENT teacher (teach, research)>
//	<!ELEMENT teach (subject, subject)>
//	<!ELEMENT research (#PCDATA)>
//	<!ELEMENT subject (#PCDATA)>
//	<!ATTLIST teacher name CDATA #REQUIRED>
//	<!ATTLIST subject taught_by CDATA #REQUIRED>`)
//	sigma, _ := xic.ParseConstraints(`
//	teacher.name -> teacher
//	subject.taught_by -> subject
//	subject.taught_by => teacher.name`)
//	spec, _ := xic.Compile(d, sigma...)
//	res, _ := spec.Consistent(context.Background())
//	fmt.Println(res.Consistent) // false: the paper's Section 1 example
package xic

import (
	"io"

	"xic/internal/constraint"
	"xic/internal/core"
	"xic/internal/doccheck"
	"xic/internal/docsession"
	"xic/internal/dtd"
	"xic/internal/xmltree"
)

// Core data types, aliased from the implementation packages.
type (
	// DTD is a document type definition D = (E, A, P, R, r): element types
	// with regular-expression content models and single-valued string
	// attributes (Definition 2.1 of the paper).
	DTD = dtd.DTD

	// Regex is a DTD content model.
	Regex = dtd.Regex

	// Tree is a finite XML document in the paper's tree model
	// (Definition 2.2).
	Tree = xmltree.Tree

	// Node is an element or text node of a Tree.
	Node = xmltree.Node

	// Constraint is an XML integrity constraint: Key, ForeignKey,
	// Inclusion, NotKey or NotInclusion.
	Constraint = constraint.Constraint

	// Key is τ[X] → τ: the attribute set X identifies τ elements.
	Key = constraint.Key

	// Inclusion is τ1[X] ⊆ τ2[Y] without a key requirement on Y.
	Inclusion = constraint.Inclusion

	// ForeignKey is τ1[X] ⊆ τ2[Y] combined with the key τ2[Y] → τ2.
	ForeignKey = constraint.ForeignKey

	// NotKey is the negation of a unary key.
	NotKey = constraint.NotKey

	// NotInclusion is the negation of a unary inclusion constraint.
	NotInclusion = constraint.NotInclusion

	// Class identifies the paper's constraint classes.
	Class = constraint.Class

	// Result is a consistency verdict with an optional witness document.
	Result = core.Result

	// Implication is an implication verdict with an optional
	// counterexample document.
	Implication = core.Implication

	// Diagnosis explains an inconsistent specification with a minimal
	// inconsistent core.
	Diagnosis = core.Diagnosis

	// SolveStats is a snapshot of a Spec's cumulative ILP-oracle counters:
	// presolve decisions, fast-path hits, how much the presolve layer
	// shrank the systems that reached branch-and-bound, how the simplex
	// pivots split between the int64 fast tableau and the exact big.Rat
	// kernel, and work stealing among branch-and-bound workers.
	SolveStats = core.SolveStats

	// Validator checks documents for DTD conformance.
	Validator = xmltree.Validator

	// Report is the outcome of one streaming validation pass
	// (Spec.ValidateStream): the violation list answers the validation
	// question and localizes each failure.
	Report = doccheck.Report

	// Violation is one way a streamed document fails its specification,
	// with an element path, source line and byte offset.
	Violation = doccheck.Violation

	// Session is a retained document with incrementally-maintained
	// validation state (Spec.OpenSession): edits are re-checked against
	// only the touched constraint indexes and content models, in O(edit)
	// rather than O(document).
	Session = docsession.Session

	// EditOp is one edit against a Session's document: InsertSubtree,
	// DeleteSubtree, SetAttr or SetText.
	EditOp = docsession.EditOp

	// OpKind names an EditOp's operation.
	OpKind = docsession.OpKind

	// ApplyResult is the outcome of one Session.Apply batch.
	ApplyResult = docsession.ApplyResult

	// RejectedEdit is the delta report of an edit the session refused:
	// the violations the edit would have introduced, plus a minimal
	// repair hint when one exists.
	RejectedEdit = docsession.RejectedEdit

	// RepairHint is a minimal counter-edit for a rejected op.
	RepairHint = docsession.RepairHint

	// InvalidDocumentError is returned by Spec.OpenSession when the
	// ingested document is well-formed but violates the specification.
	InvalidDocumentError = docsession.InvalidDocumentError
)

// EditOp kinds, aliased from the session engine.
const (
	OpInsertSubtree = docsession.OpInsertSubtree
	OpDeleteSubtree = docsession.OpDeleteSubtree
	OpSetAttr       = docsession.OpSetAttr
	OpSetText       = docsession.OpSetText
)

// SetAttr returns the edit replacing one attribute value of the element
// at path (xmltree.Tree.Path notation, e.g. teachers/teacher[1]).
func SetAttr(path, attr, value string) EditOp { return docsession.SetAttr(path, attr, value) }

// SetText returns the edit replacing the text content of the element at
// path; a value of XML white space only (space, tab, CR, LF) removes the
// text node, as the document reader drops such text.
func SetText(path, value string) EditOp { return docsession.SetText(path, value) }

// InsertSubtree returns the edit inserting the XML fragment as a new
// subtree under path at child slot index.
func InsertSubtree(path string, index int, xmlSrc string) EditOp {
	return docsession.InsertSubtree(path, index, xmlSrc)
}

// DeleteSubtree returns the edit deleting the subtree rooted at path.
func DeleteSubtree(path string) EditOp { return docsession.DeleteSubtree(path) }

// ParseDTD reads a DTD in XML DTD syntax (<!ELEMENT …>, <!ATTLIST …>,
// optional <!DOCTYPE root>). Syntax errors are *ParseError values carrying
// the line and byte offset of the offending token.
func ParseDTD(src string) (*DTD, error) {
	d, err := dtd.Parse(src)
	return d, wrapDTDError(err)
}

// ParseConstraints reads a constraint set, one constraint per line:
//
//	teacher.name -> teacher                 key
//	course(dept, no) -> course              multi-attribute key
//	subject.taught_by <= teacher.name       inclusion constraint
//	subject.taught_by => teacher.name       foreign key
//	not teacher.name -> teacher             negated unary key
//	not subject.taught_by <= teacher.name   negated unary inclusion
//
// Syntax errors are *ParseError values carrying the offending line.
func ParseConstraints(src string) ([]Constraint, error) {
	set, err := constraint.Parse(src)
	return set, wrapConstraintsError(err)
}

// ParseDocument reads an XML document into the tree model. Syntax errors
// are *ParseError values.
func ParseDocument(r io.Reader) (*Tree, error) {
	t, err := xmltree.Parse(r)
	return t, wrapDocumentError(err)
}

// ParseDocumentString is ParseDocument on a string.
func ParseDocumentString(src string) (*Tree, error) {
	t, err := xmltree.ParseString(src)
	return t, wrapDocumentError(err)
}

// SerializeDocument renders a tree as indented XML text.
func SerializeDocument(t *Tree) string { return xmltree.Serialize(t) }

// ConsistentDTD reports whether any finite document conforms to the DTD
// (Theorem 3.5(1)); linear time.
func ConsistentDTD(d *DTD) bool { return core.ConsistentDTD(d) }

// ClassOf returns the smallest of the paper's constraint classes containing
// the set (C_K, C_{K,FK}, C^Unary_{K,FK}, C^Unary_{K,IC}, C^Unary_{K¬,IC},
// C^Unary_{K¬,IC¬}).
func ClassOf(set []Constraint) Class { return constraint.ClassOf(set) }

// CheckPrimaryKeys verifies the primary-key restriction of Section 4.2: at
// most one key per element type.
func CheckPrimaryKeys(set []Constraint) error {
	if err := constraint.CheckPrimaryKeyRestriction(set); err != nil {
		return &SpecError{Stage: "constraints", Err: err}
	}
	return nil
}

// ConstraintsFromIDs derives the unary keys and foreign keys denoted by the
// DTD's ID and IDREF attribute declarations. It fails when IDREF targets
// are ambiguous (several element types declare ID attributes) — the
// unscopedness the paper criticises about DTD's built-in mechanism.
func ConstraintsFromIDs(d *DTD) ([]Constraint, error) {
	set, err := constraint.FromIDAttributes(d)
	if err != nil {
		return nil, &SpecError{Stage: "constraints", Err: err}
	}
	return set, nil
}

// UnaryKey builds the key τ.l → τ.
func UnaryKey(typ, attr string) Key { return constraint.UnaryKey(typ, attr) }

// UnaryInclusion builds the inclusion constraint τ1.l1 ⊆ τ2.l2.
func UnaryInclusion(child, childAttr, parent, parentAttr string) Inclusion {
	return constraint.UnaryInclusion(child, childAttr, parent, parentAttr)
}

// UnaryForeignKey builds the foreign key τ1.l1 ⊆ τ2.l2 with key τ2.l2 → τ2.
func UnaryForeignKey(child, childAttr, parent, parentAttr string) ForeignKey {
	return constraint.UnaryForeignKey(child, childAttr, parent, parentAttr)
}
