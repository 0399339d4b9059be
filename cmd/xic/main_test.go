package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the xic binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xic")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run executes the binary and returns combined output and exit code.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("exec: %v\n%s", err, out)
	return "", -1
}

func specPath(t *testing.T, name string) string {
	t.Helper()
	p := filepath.Join("..", "..", "specs", name)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("missing spec file %s: %v", name, err)
	}
	return p
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildCLI(t)
	teachersDTD := specPath(t, "teachers.dtd")
	teachersXIC := specPath(t, "teachers.xic")
	schoolDTD := specPath(t, "school.dtd")
	schoolXIC := specPath(t, "school.xic")
	schoolXML := specPath(t, "school.xml")

	t.Run("check inconsistent", func(t *testing.T) {
		out, code := run(t, bin, "check", "-dtd", teachersDTD, "-constraints", teachersXIC)
		if code != 1 || !strings.Contains(out, "INCONSISTENT") {
			t.Errorf("exit=%d out=%q", code, out)
		}
	})

	t.Run("check consistent with witness", func(t *testing.T) {
		w := filepath.Join(t.TempDir(), "w.xml")
		out, code := run(t, bin, "check", "-dtd", teachersDTD, "-witness", w)
		if code != 0 || !strings.Contains(out, "CONSISTENT") {
			t.Fatalf("exit=%d out=%q", code, out)
		}
		data, err := os.ReadFile(w)
		if err != nil || !strings.Contains(string(data), "<teachers>") {
			t.Errorf("witness file: %v %q", err, data)
		}
	})

	t.Run("check with timeout flag", func(t *testing.T) {
		out, code := run(t, bin, "check", "-dtd", teachersDTD, "-constraints", teachersXIC,
			"-skip-witness", "-timeout", "1m")
		if code != 1 || !strings.Contains(out, "INCONSISTENT") {
			t.Errorf("exit=%d out=%q", code, out)
		}
	})

	t.Run("validate", func(t *testing.T) {
		out, code := run(t, bin, "validate", "-dtd", schoolDTD, "-constraints", schoolXIC, "-doc", schoolXML)
		if code != 0 || !strings.Contains(out, "VALID") {
			t.Errorf("exit=%d out=%q", code, out)
		}
	})

	t.Run("imply with counterexample", func(t *testing.T) {
		ce := filepath.Join(t.TempDir(), "ce.xml")
		out, code := run(t, bin, "imply", "-dtd", schoolDTD,
			"-query", "student.student_id -> student", "-counterexample", ce)
		if code != 1 || !strings.Contains(out, "NOT IMPLIED") {
			t.Fatalf("exit=%d out=%q", code, out)
		}
		if _, err := os.Stat(ce); err != nil {
			t.Errorf("counterexample not written: %v", err)
		}
	})

	t.Run("simplify", func(t *testing.T) {
		out, code := run(t, bin, "simplify", "-dtd", teachersDTD)
		if code != 0 || !strings.Contains(out, "<!ELEMENT teachers") {
			t.Errorf("exit=%d out=%q", code, out)
		}
	})

	t.Run("encode", func(t *testing.T) {
		out, code := run(t, bin, "encode", "-dtd", teachersDTD, "-constraints", teachersXIC)
		if code != 0 || !strings.Contains(out, "ext(teachers) = 1") {
			t.Errorf("exit=%d out=%q", code, out)
		}
	})

	t.Run("encode bigm", func(t *testing.T) {
		out, code := run(t, bin, "encode", "-dtd", teachersDTD, "-constraints", teachersXIC, "-bigm")
		if code != 0 || !strings.Contains(out, "A·x ≥ b") {
			t.Errorf("exit=%d out=%q", code, out)
		}
	})

	t.Run("class", func(t *testing.T) {
		out, code := run(t, bin, "class", "-constraints", schoolXIC)
		if code != 0 || !strings.Contains(out, "C_{K,FK}") {
			t.Errorf("exit=%d out=%q", code, out)
		}
	})

	t.Run("usage errors", func(t *testing.T) {
		if _, code := run(t, bin, "check"); code != 2 {
			t.Errorf("missing -dtd should exit 2, got %d", code)
		}
		if _, code := run(t, bin, "nonsense"); code != 2 {
			t.Errorf("unknown command should exit 2, got %d", code)
		}
	})
}

// TestCLIValidateStream exercises streaming validation end to end: a
// valid fixture, an expired deadline, and an invalid document with
// line-numbered violations.
func TestCLIValidateStream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildCLI(t)
	schoolDTD := specPath(t, "school.dtd")
	schoolXIC := specPath(t, "school.xic")
	schoolXML := specPath(t, "school.xml")

	t.Run("valid fixture", func(t *testing.T) {
		out, code := run(t, bin, "validate", "-dtd", schoolDTD, "-constraints", schoolXIC, "-doc", schoolXML)
		if code != 0 || !strings.Contains(out, "VALID") {
			t.Errorf("exit=%d out=%q", code, out)
		}
	})

	t.Run("timeout honored", func(t *testing.T) {
		// An expired 1ns deadline must abort with a processing error
		// (exit 2) that names the deadline — not a bogus verdict.
		out, code := run(t, bin, "validate", "-dtd", schoolDTD, "-constraints", schoolXIC,
			"-doc", schoolXML, "-timeout", "1ns")
		if code != 2 || !strings.Contains(out, "deadline") {
			t.Errorf("exit=%d out=%q, want exit 2 naming the deadline", code, out)
		}
	})

	t.Run("invalid document lists violations", func(t *testing.T) {
		dtdFile := filepath.Join(t.TempDir(), "db.dtd")
		xicFile := filepath.Join(t.TempDir(), "db.xic")
		docFile := filepath.Join(t.TempDir(), "db.xml")
		writeFile(t, dtdFile, "<!ELEMENT db (rec*)>\n<!ELEMENT rec EMPTY>\n<!ATTLIST rec id CDATA #REQUIRED>\n")
		writeFile(t, xicFile, "rec.id -> rec\n")
		writeFile(t, docFile, "<db>\n<rec id=\"1\"/>\n<rec id=\"1\"/>\n</db>\n")
		out, code := run(t, bin, "validate", "-dtd", dtdFile, "-constraints", xicFile, "-doc", docFile)
		if code != 1 || !strings.Contains(out, "INVALID") || !strings.Contains(out, "line 3") {
			t.Errorf("exit=%d out=%q", code, out)
		}
	})
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCLIMultiConstraintSets exercises the repeatable -constraints mode:
// the DTD compiles once, every set binds against the shared schema, and
// the exit status reflects the worst verdict.
func TestCLIMultiConstraintSets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	bin := buildCLI(t)
	teachersDTD := specPath(t, "teachers.dtd")
	teachersXIC := specPath(t, "teachers.xic")

	// A second, consistent set over the same DTD.
	keysOnly := filepath.Join(t.TempDir(), "keys.xic")
	if err := os.WriteFile(keysOnly, []byte("teacher.name -> teacher\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out, code := run(t, bin, "check",
		"-dtd", teachersDTD, "-constraints", teachersXIC, "-constraints", keysOnly)
	if code != 1 {
		t.Fatalf("one inconsistent set must exit 1, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, teachersXIC+": INCONSISTENT") {
		t.Errorf("missing per-file inconsistent verdict:\n%s", out)
	}
	if !strings.Contains(out, keysOnly+": CONSISTENT") {
		t.Errorf("missing per-file consistent verdict:\n%s", out)
	}

	// All sets consistent: exit 0.
	out, code = run(t, bin, "check", "-dtd", teachersDTD,
		"-constraints", keysOnly, "-constraints", keysOnly)
	if code != 0 {
		t.Fatalf("all-consistent multi check must exit 0, got %d:\n%s", code, out)
	}

	// -witness is a single-set feature.
	if out, code = run(t, bin, "check", "-dtd", teachersDTD,
		"-constraints", keysOnly, "-constraints", keysOnly, "-witness", "w.xml"); code != 2 {
		t.Fatalf("multi -constraints with -witness must exit 2, got %d:\n%s", code, out)
	}

	// imply under several Σ sets: implied by its own member, not by Σ1?
	// Σ1 is inconsistent, so everything is (vacuously) implied by it too.
	out, code = run(t, bin, "imply", "-dtd", teachersDTD,
		"-constraints", teachersXIC, "-constraints", keysOnly,
		"-query", "teacher.name -> teacher")
	if code != 0 {
		t.Fatalf("imply under both sets must exit 0, got %d:\n%s", code, out)
	}
	if strings.Count(out, "IMPLIED") != 2 {
		t.Errorf("want one IMPLIED line per set:\n%s", out)
	}
}
