// Teachers: the full Section 1 story — static consistency, dynamic
// validation of the Figure 1 document, and a consistent redesign of the
// constraint set. Each specification is compiled once into an xic.Spec;
// dynamic validation then reuses the compiled conformance automata.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"xic"
)

const teacherDTD = `
<!ELEMENT teachers (teacher+)>
<!ELEMENT teacher (teach, research)>
<!ELEMENT teach (subject, subject)>
<!ELEMENT research (#PCDATA)>
<!ELEMENT subject (#PCDATA)>
<!ATTLIST teacher name CDATA #REQUIRED>
<!ATTLIST subject taught_by CDATA #REQUIRED>
`

// figure1 is the document of Figure 1 in the paper: it conforms to the DTD
// but violates the subject key of Σ1.
const figure1 = `
<teachers>
  <teacher name="Joe">
    <teach>
      <subject taught_by="Joe">XML</subject>
      <subject taught_by="Joe">DB</subject>
    </teach>
    <research>Web DB</research>
  </teacher>
</teachers>
`

func main() {
	ctx := context.Background()
	d, err := xic.ParseDTD(teacherDTD)
	if err != nil {
		log.Fatal(err)
	}
	sigma1, _ := xic.ParseConstraints(`
teacher.name -> teacher
subject.taught_by -> subject
subject.taught_by => teacher.name
`)
	// One schema, three constraint sets below: compile the DTD once and
	// bind each set (the two-stage API's serving shape).
	schema, err := xic.CompileDTD(d)
	if err != nil {
		log.Fatal(err)
	}
	spec1, err := schema.Bind(sigma1...)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Dynamic validation: the Figure 1 document conforms to the DTD…
	doc, err := xic.ParseDocumentString(figure1)
	if err != nil {
		log.Fatal(err)
	}
	dtdOnly, err := schema.Bind()
	if err != nil {
		log.Fatal(err)
	}
	if err := dtdOnly.Validate(ctx, doc); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 1 conforms to D1: yes")

	// …but violates Σ1.
	err = spec1.Validate(ctx, doc)
	var viol *xic.ViolationError
	if errors.As(err, &viol) {
		fmt.Printf("Figure 1 against Σ1: violates %s\n", viol.Violated)
	}

	// 2. Dynamic validation cannot tell a bad document from a bad
	// specification. Static analysis can: Σ1 is unsatisfiable over D1, so
	// *every* document will fail — repeated validation failures are the
	// specification's fault.
	res, err := spec1.WithSolveOptions(xic.WithSkipWitness()).Consistent(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Σ1 over D1 statically consistent: %v  → the specification itself is broken\n", res.Consistent)

	// 3. A consistent redesign: reference subjects from teachers instead.
	redesign, _ := xic.ParseConstraints(`
teacher.name -> teacher
subject.taught_by -> subject
teacher.name => subject.taught_by
`)
	spec2, err := schema.Bind(redesign...)
	if err != nil {
		log.Fatal(err)
	}
	res, err = spec2.Consistent(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inverted foreign key consistent: %v\n", res.Consistent)
	fmt.Println("witness:")
	fmt.Print(xic.SerializeDocument(res.Witness))

	// 4. The witness validates dynamically, closing the loop.
	if err := spec2.Validate(ctx, res.Witness); err != nil {
		log.Fatal(err)
	}
	fmt.Println("witness passes dynamic validation: yes")
}
