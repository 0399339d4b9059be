// Command xic statically validates XML specifications: DTDs plus key,
// foreign-key and inclusion constraints, per Fan & Libkin (JACM 2002).
//
// Usage:
//
//	xic check    -dtd spec.dtd -constraints spec.xic [-constraints more.xic ...] [-witness out.xml] [-skip-witness] [-max-solver-nodes N] [-solver-par N] [-exact] [-timeout d]
//	xic imply    -dtd spec.dtd -constraints spec.xic [-constraints more.xic ...] -query "constraint" [-counterexample out.xml] [-solver-par N] [-exact] [-timeout d]
//	xic validate -dtd spec.dtd [-constraints spec.xic] -doc doc.xml [-stream] [-timeout d]
//	xic simplify -dtd spec.dtd
//	xic encode   -dtd spec.dtd [-constraints spec.xic] [-bigm]
//	xic class    -constraints spec.xic
//
// check and imply compile the specification once and run the decision
// under a context: -timeout bounds the NP search, turning an adversarial
// instance into a clean "deadline exceeded" failure instead of a hung
// process.
//
// -constraints may be repeated: the DTD is then compiled once
// (xic.CompileDTD) and every constraint file is bound to the shared schema
// (Schema.Bind), answering one verdict per file — the multi-constraint-set
// serving shape of the two-stage API. With a single -constraints the
// commands behave exactly as before.
//
// Exit status: 0 for a positive answer (consistent / implied / valid —
// for every set when several are given), 1 for a negative answer, 2 for
// usage or processing errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xic"
	"xic/internal/cardinality"
	"xic/internal/constraint"
	"xic/internal/dtd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	var negative bool
	switch os.Args[1] {
	case "check":
		negative, err = runCheck(os.Args[2:])
	case "imply":
		negative, err = runImply(os.Args[2:])
	case "validate":
		negative, err = runValidate(os.Args[2:])
	case "simplify":
		err = runSimplify(os.Args[2:])
	case "encode":
		err = runEncode(os.Args[2:])
	case "class":
		err = runClass(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "xic: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xic:", err)
		os.Exit(2)
	}
	if negative {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `xic — static validation of XML specifications (DTD + integrity constraints)

commands:
  check      decide consistency; optionally emit a witness document
  imply      decide implication (D,Σ) ⊢ φ; optionally emit a counterexample
  validate   check one XML document against DTD and constraints (-stream for
             single-pass validation of large documents)
  simplify   print the simple DTD of Section 4.1
  encode     print the cardinality encoding Ψ(D,Σ) (or its big-M matrix)
  class      print the constraint class of a constraint set`)
}

func loadDTD(path string) (*xic.DTD, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -dtd")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return xic.ParseDTD(string(data))
}

// fileList collects a repeatable -constraints flag.
type fileList []string

func (f *fileList) String() string { return strings.Join(*f, ",") }

func (f *fileList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// loadSchemaSpecs compiles the DTD once and binds every constraint file to
// the shared schema, returning the specs in input order. With no files it
// binds the empty set once.
func loadSchemaSpecs(dtdPath string, consPaths []string) (*xic.Schema, []*xic.Spec, error) {
	d, err := loadDTD(dtdPath)
	if err != nil {
		return nil, nil, err
	}
	schema, err := xic.CompileDTD(d)
	if err != nil {
		return nil, nil, err
	}
	if len(consPaths) == 0 {
		spec, err := schema.Bind()
		if err != nil {
			return nil, nil, err
		}
		return schema, []*xic.Spec{spec}, nil
	}
	specs := make([]*xic.Spec, len(consPaths))
	for i, path := range consPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		if specs[i], err = schema.BindStrings(string(data)); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return schema, specs, nil
}

func loadConstraints(path string, required bool) ([]xic.Constraint, error) {
	if path == "" {
		if required {
			return nil, fmt.Errorf("missing -constraints")
		}
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return xic.ParseConstraints(string(data))
}

// loadSpec compiles the DTD and constraint files into a Spec.
func loadSpec(dtdPath, consPath string) (*xic.Spec, error) {
	d, err := loadDTD(dtdPath)
	if err != nil {
		return nil, err
	}
	set, err := loadConstraints(consPath, false)
	if err != nil {
		return nil, err
	}
	return xic.Compile(d, set...)
}

// checkContext turns a -timeout value into a context.
func checkContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

func runCheck(args []string) (negative bool, err error) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	dtdPath := fs.String("dtd", "", "DTD file")
	var consPaths fileList
	fs.Var(&consPaths, "constraints", "constraint file (repeat to check several sets against one compiled schema)")
	witnessPath := fs.String("witness", "", "write a witness document here when consistent (single set only)")
	skipWitness := fs.Bool("skip-witness", false, "decision only, no witness construction")
	maxNodes := fs.Int("max-solver-nodes", 0, "branch-and-bound node budget (0 = default)")
	solverPar := fs.Int("solver-par", 0, "branch-and-bound workers (0 = one worker)")
	exact := fs.Bool("exact", false, "force the exact big.Rat simplex kernel (skip the int64 fast tableau)")
	timeout := fs.Duration("timeout", 0, "abort the NP search after this long (0 = no deadline)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	multi := len(consPaths) > 1
	if multi && *witnessPath != "" {
		return false, fmt.Errorf("-witness requires a single -constraints file")
	}
	_, specs, err := loadSchemaSpecs(*dtdPath, consPaths)
	if err != nil {
		return false, err
	}
	opts := []xic.SolveOption{
		xic.WithMaxNodes(*maxNodes),
		xic.WithSolverParallelism(*solverPar),
	}
	if (*skipWitness && *witnessPath == "") || multi {
		opts = append(opts, xic.WithSkipWitness())
	}
	if *exact {
		opts = append(opts, xic.WithoutFastTableau())
	}
	ctx, cancel := checkContext(*timeout)
	defer cancel()
	for i, spec := range specs {
		spec = spec.WithSolveOptions(opts...)
		res, err := spec.Consistent(ctx)
		if err != nil {
			if multi {
				return false, fmt.Errorf("%s: %w", consPaths[i], err)
			}
			return false, err
		}
		prefix := ""
		if multi {
			prefix = consPaths[i] + ": "
		}
		if !res.Consistent {
			fmt.Printf("%sINCONSISTENT (%s): no document conforms to the DTD and satisfies all %d constraints\n",
				prefix, res.Class, len(spec.Constraints()))
			negative = true
			continue
		}
		fmt.Printf("%sCONSISTENT (%s)\n", prefix, res.Class)
		if *witnessPath != "" && res.Witness != nil {
			if err := os.WriteFile(*witnessPath, []byte(xic.SerializeDocument(res.Witness)), 0o644); err != nil {
				return false, err
			}
			fmt.Printf("witness written to %s\n", *witnessPath)
		}
	}
	return negative, nil
}

func runImply(args []string) (negative bool, err error) {
	fs := flag.NewFlagSet("imply", flag.ExitOnError)
	dtdPath := fs.String("dtd", "", "DTD file")
	var consPaths fileList
	fs.Var(&consPaths, "constraints", "constraint file (Σ; repeat to test the query under several sets on one compiled schema)")
	query := fs.String("query", "", "constraint φ to test, in constraint syntax")
	cePath := fs.String("counterexample", "", "write a counterexample document here when not implied (single set only)")
	solverPar := fs.Int("solver-par", 0, "branch-and-bound workers (0 = one worker)")
	exact := fs.Bool("exact", false, "force the exact big.Rat simplex kernel (skip the int64 fast tableau)")
	timeout := fs.Duration("timeout", 0, "abort the coNP search after this long (0 = no deadline)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	multi := len(consPaths) > 1
	if multi && *cePath != "" {
		return false, fmt.Errorf("-counterexample requires a single -constraints file")
	}
	_, specs, err := loadSchemaSpecs(*dtdPath, consPaths)
	if err != nil {
		return false, err
	}
	if *query == "" {
		return false, fmt.Errorf("missing -query")
	}
	phi, err := constraint.ParseOne(*query)
	if err != nil {
		return false, err
	}
	ctx, cancel := checkContext(*timeout)
	defer cancel()
	for i, spec := range specs {
		var imp *xic.Implication
		if *solverPar != 0 || *exact {
			var opts []xic.SolveOption
			opts = append(opts, xic.WithSolverParallelism(*solverPar))
			if *exact {
				opts = append(opts, xic.WithoutFastTableau())
			}
			imp, err = spec.ImpliesOpts(ctx, phi, opts...)
		} else {
			imp, err = spec.Implies(ctx, phi)
		}
		if err != nil {
			if multi {
				return false, fmt.Errorf("%s: %w", consPaths[i], err)
			}
			return false, err
		}
		prefix := ""
		if multi {
			prefix = consPaths[i] + ": "
		}
		if imp.Implied {
			fmt.Printf("%sIMPLIED: every conforming document satisfying Σ satisfies %s\n", prefix, phi)
			continue
		}
		negative = true
		fmt.Printf("%sNOT IMPLIED: %s can fail while Σ holds\n", prefix, phi)
		if *cePath != "" && imp.Counterexample != nil {
			if err := os.WriteFile(*cePath, []byte(xic.SerializeDocument(imp.Counterexample)), 0o644); err != nil {
				return false, err
			}
			fmt.Printf("counterexample written to %s\n", *cePath)
		}
	}
	return negative, nil
}

func runValidate(args []string) (negative bool, err error) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	dtdPath := fs.String("dtd", "", "DTD file")
	consPath := fs.String("constraints", "", "constraint file (optional)")
	docPath := fs.String("doc", "", "XML document file")
	stream := fs.Bool("stream", false, "validate in a single streaming pass; memory is bounded by the constraint indexes, not the document size")
	timeout := fs.Duration("timeout", 0, "abort validation (either mode) after this long (0 = no deadline)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	spec, err := loadSpec(*dtdPath, *consPath)
	if err != nil {
		return false, err
	}
	if *docPath == "" {
		return false, fmt.Errorf("missing -doc")
	}
	f, err := os.Open(*docPath)
	if err != nil {
		return false, err
	}
	defer f.Close()
	ctx, cancel := checkContext(*timeout)
	defer cancel()
	if *stream {
		rep, err := spec.ValidateStream(ctx, f)
		if err != nil {
			return false, err
		}
		if !rep.OK() {
			fmt.Printf("INVALID: %d violation(s) in %d elements\n", len(rep.Violations), rep.Elements)
			for _, v := range rep.Violations {
				fmt.Printf("  %s\n", v)
			}
			if rep.Truncated {
				fmt.Println("  (further violations suppressed)")
			}
			return true, nil
		}
		fmt.Printf("VALID: %d elements conform to the DTD and satisfy all constraints\n", rep.Elements)
		return false, nil
	}
	doc, err := xic.ParseDocument(f)
	if err != nil {
		return false, err
	}
	if err := spec.Validate(ctx, doc); err != nil {
		if errors.Is(err, xic.ErrCanceled) {
			return false, err
		}
		fmt.Printf("INVALID: %v\n", err)
		return true, nil
	}
	fmt.Println("VALID: document conforms to the DTD and satisfies all constraints")
	return false, nil
}

func runSimplify(args []string) error {
	fs := flag.NewFlagSet("simplify", flag.ExitOnError)
	dtdPath := fs.String("dtd", "", "DTD file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := loadDTD(*dtdPath)
	if err != nil {
		return err
	}
	simp := dtd.Simplify(d)
	fmt.Print(simp.DTD.String())
	return nil
}

func runEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	dtdPath := fs.String("dtd", "", "DTD file")
	consPath := fs.String("constraints", "", "constraint file (optional)")
	bigM := fs.Bool("bigm", false, "print the big-M LIP matrix of Theorem 4.1 instead of the system")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := loadDTD(*dtdPath)
	if err != nil {
		return err
	}
	set, err := loadConstraints(*consPath, false)
	if err != nil {
		return err
	}
	enc, err := cardinality.EncodeDTD(dtd.Simplify(d))
	if err != nil {
		return err
	}
	if _, err := enc.AddFull(set); err != nil {
		return err
	}
	if !*bigM {
		fmt.Print(enc.Sys.String())
		return nil
	}
	m := enc.Sys.BigM()
	fmt.Printf("# %d rows, %d variables, A·x ≥ b with x ≥ 0\n", m.Rows(), m.Cols())
	for r := range m.A {
		for c := range m.A[r] {
			if m.A[r][c].Sign() != 0 {
				fmt.Printf("%s·%s ", m.A[r][c], m.Names[c])
			}
		}
		fmt.Printf(">= %s\n", m.B[r])
	}
	return nil
}

func runClass(args []string) error {
	fs := flag.NewFlagSet("class", flag.ExitOnError)
	consPath := fs.String("constraints", "", "constraint file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, err := loadConstraints(*consPath, true)
	if err != nil {
		return err
	}
	fmt.Println(xic.ClassOf(set))
	if err := xic.CheckPrimaryKeys(set); err == nil {
		fmt.Println("primary-key restricted: yes")
	} else {
		fmt.Printf("primary-key restricted: no (%v)\n", err)
	}
	return nil
}
