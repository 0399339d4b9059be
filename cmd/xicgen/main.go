// Command xicgen generates workloads for xic: random DTDs, random unary
// constraint sets over a DTD, and random 0/1-LIP instances encoded through
// the Theorem 4.7 reduction. All output is deterministic in -seed.
//
// Usage:
//
//	xicgen dtd  [-seed N] [-types N] [-depth N] [-attrs N] [-recursive]
//	xicgen constraints -dtd spec.dtd [-seed N] [-keys N] [-fks N] [-ics N] [-negkeys N] [-negics N]
//	xicgen lip  [-seed N] [-rows N] [-cols N] [-density PCT] [-as-spec]
//	xicgen doc  -dtd spec.dtd [-seed N] [-nodes N] [-values N]
//	xicgen edits -dtd spec.dtd [-seed N] [-nodes N] [-values N] [-n N]
//
// doc streams a document conforming to the DTD with approximately -nodes
// element nodes (millions are fine: generation is O(depth) memory), the
// workload for `xic validate`. -values 0 makes attribute values
// globally unique, so keys hold; -values N draws them from a pool of N,
// making collisions likely.
//
// edits emits a JSON edit script of -n operations (insert, delete,
// setattr, settext) against the document that `xicgen doc` produces for
// the same -seed/-nodes/-values — the workload for the session edit
// endpoints and the edit benchmarks. The script is generated by naively
// replaying each op against a shadow tree, so paths stay resolvable
// through the sequence; whether an op is accepted is the session
// engine's decision.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"xic"
	"xic/internal/constraint"
	"xic/internal/docsession"
	"xic/internal/randgen"
	"xic/internal/reduction"
	"xic/internal/xmltree"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: xicgen dtd|constraints|lip|doc|edits [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "dtd":
		err = genDTD(os.Args[2:])
	case "constraints":
		err = genConstraints(os.Args[2:])
	case "lip":
		err = genLIP(os.Args[2:])
	case "doc":
		err = genDoc(os.Args[2:])
	case "edits":
		err = genEdits(os.Args[2:])
	default:
		err = fmt.Errorf("unknown kind %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xicgen:", err)
		os.Exit(2)
	}
}

func genDTD(args []string) error {
	fs := flag.NewFlagSet("dtd", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	types := fs.Int("types", 5, "number of element types")
	depth := fs.Int("depth", 2, "content-model nesting depth")
	attrs := fs.Int("attrs", 1, "attributes per element type")
	recursive := fs.Bool("recursive", false, "allow recursive element types")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d := randgen.RandDTD(rand.New(rand.NewSource(*seed)), randgen.DTDSpec{
		Types: *types, Depth: *depth, AttrsPer: *attrs, Recursive: *recursive,
	})
	fmt.Print(d.String())
	return nil
}

func genConstraints(args []string) error {
	fs := flag.NewFlagSet("constraints", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	dtdPath := fs.String("dtd", "", "DTD file to draw attributes from")
	keys := fs.Int("keys", 2, "number of unary keys")
	fks := fs.Int("fks", 1, "number of unary foreign keys")
	ics := fs.Int("ics", 0, "number of unary inclusion constraints")
	negKeys := fs.Int("negkeys", 0, "number of negated keys")
	negICs := fs.Int("negics", 0, "number of negated inclusions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dtdPath == "" {
		return fmt.Errorf("missing -dtd")
	}
	data, err := os.ReadFile(*dtdPath)
	if err != nil {
		return err
	}
	d, err := xic.ParseDTD(string(data))
	if err != nil {
		return err
	}
	set := randgen.RandUnarySet(rand.New(rand.NewSource(*seed)), d, randgen.SetSpec{
		Keys: *keys, ForeignKeys: *fks, Inclusions: *ics,
		NegKeys: *negKeys, NegInclusions: *negICs,
	})
	fmt.Print(constraint.FormatSet(set))
	return nil
}

func genDoc(args []string) error {
	fs := flag.NewFlagSet("doc", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	dtdPath := fs.String("dtd", "", "DTD file to generate against")
	nodes := fs.Int("nodes", 1000, "approximate number of element nodes (millions are fine)")
	values := fs.Int("values", 0, "attribute value pool size (0 = globally unique values)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dtdPath == "" {
		return fmt.Errorf("missing -dtd")
	}
	data, err := os.ReadFile(*dtdPath)
	if err != nil {
		return err
	}
	d, err := xic.ParseDTD(string(data))
	if err != nil {
		return err
	}
	n, err := randgen.WriteDocument(os.Stdout, d, rand.New(rand.NewSource(*seed)), randgen.DocSpec{
		TargetNodes: *nodes, ValuePool: *values,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xicgen: wrote %d element nodes\n", n)
	return nil
}

// genEdits regenerates the -seed document in memory and derives a JSON
// edit script against it.
func genEdits(args []string) error {
	fs := flag.NewFlagSet("edits", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed (shared with the matching `xicgen doc` run)")
	dtdPath := fs.String("dtd", "", "DTD file the document conforms to")
	nodes := fs.Int("nodes", 1000, "approximate element-node count of the base document")
	values := fs.Int("values", 0, "attribute value pool size (0 = globally unique values)")
	n := fs.Int("n", 100, "number of edit operations to emit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dtdPath == "" {
		return fmt.Errorf("missing -dtd")
	}
	data, err := os.ReadFile(*dtdPath)
	if err != nil {
		return err
	}
	d, err := xic.ParseDTD(string(data))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var doc bytes.Buffer
	if _, err := randgen.WriteDocument(&doc, d, rng, randgen.DocSpec{
		TargetNodes: *nodes, ValuePool: *values,
	}); err != nil {
		return err
	}
	tree, err := xmltree.Parse(bytes.NewReader(doc.Bytes()))
	if err != nil {
		return err
	}
	// The document consumed part of the seed's stream; the script draws
	// from the rest, so one seed pins both.
	ops := docsession.RandomScript(rng, d, tree, *n)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ops); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xicgen: wrote %d edit operations\n", len(ops))
	return nil
}

func genLIP(args []string) error {
	fs := flag.NewFlagSet("lip", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	rows := fs.Int("rows", 3, "matrix rows")
	cols := fs.Int("cols", 4, "matrix columns")
	density := fs.Int("density", 50, "percentage of 1-entries")
	asSpec := fs.Bool("as-spec", false, "emit the Theorem 4.7 DTD+constraints instead of the matrix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a := randgen.RandLIP01(rand.New(rand.NewSource(*seed)), *rows, *cols, *density)
	if !*asSpec {
		for _, row := range a {
			for j, v := range row {
				if j > 0 {
					fmt.Print(" ")
				}
				fmt.Print(v)
			}
			fmt.Println()
		}
		return nil
	}
	spec, err := reduction.LIPToSpec(a)
	if err != nil {
		return err
	}
	fmt.Println("<!-- DTD -->")
	fmt.Print(spec.DTD.String())
	fmt.Println("<!-- constraints -->")
	fmt.Print(constraint.FormatSet(spec.Sigma))
	return nil
}
