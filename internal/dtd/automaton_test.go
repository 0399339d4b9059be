package dtd

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func match(t *testing.T, r Regex, input string) bool {
	t.Helper()
	a := Compile(r)
	var labels []string
	if input != "" {
		labels = strings.Split(input, " ")
	}
	return a.Match(labels)
}

func TestAutomatonBasics(t *testing.T) {
	a := Name{Type: "a"}
	b := Name{Type: "b"}
	tests := []struct {
		r     Regex
		input string
		want  bool
	}{
		{Empty{}, "", true},
		{Empty{}, "a", false},
		{a, "a", true},
		{a, "", false},
		{a, "b", false},
		{a, "a a", false},
		{Seq{Items: []Regex{a, b}}, "a b", true},
		{Seq{Items: []Regex{a, b}}, "b a", false},
		{Seq{Items: []Regex{a, b}}, "a", false},
		{Alt{Items: []Regex{a, b}}, "a", true},
		{Alt{Items: []Regex{a, b}}, "b", true},
		{Alt{Items: []Regex{a, b}}, "", false},
		{Star{Inner: a}, "", true},
		{Star{Inner: a}, "a", true},
		{Star{Inner: a}, "a a a a", true},
		{Star{Inner: a}, "a b", false},
		{Plus{Inner: a}, "", false},
		{Plus{Inner: a}, "a", true},
		{Plus{Inner: a}, "a a", true},
		{Opt{Inner: a}, "", true},
		{Opt{Inner: a}, "a", true},
		{Opt{Inner: a}, "a a", false},
		{Text{}, "#PCDATA", true},
		{Text{}, "a", false},
		// (a|b)*, a
		{Seq{Items: []Regex{Star{Inner: Alt{Items: []Regex{a, b}}}, a}}, "a", true},
		{Seq{Items: []Regex{Star{Inner: Alt{Items: []Regex{a, b}}}, a}}, "b b a", true},
		{Seq{Items: []Regex{Star{Inner: Alt{Items: []Regex{a, b}}}, a}}, "b b", false},
		// nested stars
		{Star{Inner: Star{Inner: a}}, "a a a", true},
		{Star{Inner: Seq{Items: []Regex{a, b}}}, "a b a b", true},
		{Star{Inner: Seq{Items: []Regex{a, b}}}, "a b a", false},
		// non-deterministic: (a, a) | (a, b)
		{Alt{Items: []Regex{Seq{Items: []Regex{a, a}}, Seq{Items: []Regex{a, b}}}}, "a b", true},
		{Alt{Items: []Regex{Seq{Items: []Regex{a, a}}, Seq{Items: []Regex{a, b}}}}, "a a", true},
		{Alt{Items: []Regex{Seq{Items: []Regex{a, a}}, Seq{Items: []Regex{a, b}}}}, "b a", false},
	}
	for _, tt := range tests {
		if got := match(t, tt.r, tt.input); got != tt.want {
			t.Errorf("Match(%v, %q) = %v, want %v", tt.r, tt.input, got, tt.want)
		}
	}
}

func TestAutomatonTeachSequence(t *testing.T) {
	d := Teachers()
	a := Compile(d.Element("teach").Content)
	if !a.Match([]string{"subject", "subject"}) {
		t.Error("teach should accept two subjects")
	}
	if a.Match([]string{"subject"}) {
		t.Error("teach should reject a single subject")
	}
	if a.Match([]string{"subject", "subject", "subject"}) {
		t.Error("teach should reject three subjects")
	}
}

// brute is a reference matcher: derivative-style recursive evaluation with
// memoization-free exponential search, valid for tiny inputs.
func brute(r Regex, labels []string) bool {
	switch x := r.(type) {
	case Empty:
		return len(labels) == 0
	case Text:
		return len(labels) == 1 && labels[0] == TextSymbol
	case Name:
		return len(labels) == 1 && labels[0] == x.Type
	case Seq:
		if len(x.Items) == 0 {
			return len(labels) == 0
		}
		if len(x.Items) == 1 {
			return brute(x.Items[0], labels)
		}
		rest := Seq{Items: x.Items[1:]}
		for cut := 0; cut <= len(labels); cut++ {
			if brute(x.Items[0], labels[:cut]) && brute(rest, labels[cut:]) {
				return true
			}
		}
		return false
	case Alt:
		for _, it := range x.Items {
			if brute(it, labels) {
				return true
			}
		}
		return false
	case Star:
		if len(labels) == 0 {
			return true
		}
		for cut := 1; cut <= len(labels); cut++ {
			if brute(x.Inner, labels[:cut]) && brute(Star{Inner: x.Inner}, labels[cut:]) {
				return true
			}
		}
		return false
	case Plus:
		return brute(Seq{Items: []Regex{x.Inner, Star{Inner: x.Inner}}}, labels)
	case Opt:
		return len(labels) == 0 || brute(x.Inner, labels)
	}
	return false
}

// randRegex builds a random regex over symbols {a, b} with bounded depth.
func randRegex(rng *rand.Rand, depth int) Regex {
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return Name{Type: "a"}
		case 1:
			return Name{Type: "b"}
		default:
			return Empty{}
		}
	}
	switch rng.Intn(6) {
	case 0:
		return Seq{Items: []Regex{randRegex(rng, depth-1), randRegex(rng, depth-1)}}
	case 1:
		return Alt{Items: []Regex{randRegex(rng, depth-1), randRegex(rng, depth-1)}}
	case 2:
		return Star{Inner: randRegex(rng, depth-1)}
	case 3:
		return Plus{Inner: randRegex(rng, depth-1)}
	case 4:
		return Opt{Inner: randRegex(rng, depth-1)}
	default:
		return randRegex(rng, 0)
	}
}

func TestAutomatonAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	syms := []string{"a", "b"}
	for trial := 0; trial < 300; trial++ {
		r := randRegex(rng, 3)
		a := Compile(r)
		for wlen := 0; wlen <= 4; wlen++ {
			labels := make([]string, wlen)
			for i := range labels {
				labels[i] = syms[rng.Intn(2)]
			}
			got := a.Match(labels)
			want := brute(r, labels)
			if got != want {
				t.Fatalf("regex %v, input %v: automaton=%v brute=%v", r, labels, got, want)
			}
		}
	}
}

func TestAutomatonNullableAgreesWithRegex(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRegex(rng, 3)
		return Compile(r).Match(nil) == Nullable(r)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRunAgainstMatch checks the incremental Run API against batch Match on
// random regexes and words, including prefix-death and Reset reuse.
func TestRunAgainstMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	syms := []string{"a", "b"}
	for trial := 0; trial < 300; trial++ {
		re := randRegex(rng, 3)
		a := Compile(re)
		run := a.Start()
		for rep := 0; rep < 3; rep++ {
			run.Reset()
			wlen := rng.Intn(5)
			labels := make([]string, wlen)
			for i := range labels {
				labels[i] = syms[rng.Intn(2)]
			}
			alive := true
			for _, lab := range labels {
				alive = run.Step(lab)
				if !alive {
					break
				}
			}
			got := alive && run.Accepting()
			if !alive && run.Accepting() {
				t.Fatalf("regex %v: dead run reports accepting", re)
			}
			if want := a.Match(labels); got != want {
				t.Fatalf("regex %v, input %v: run=%v match=%v", re, labels, got, want)
			}
		}
	}
}

// TestReuseAcrossAutomata passes one Run from automaton to automaton, as
// the streaming checker does with each open element's Run, and checks it
// against batch Match every time.
func TestReuseAcrossAutomata(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	syms := []string{"a", "b"}
	var run *Run
	for trial := 0; trial < 300; trial++ {
		re := randRegex(rng, 1+rng.Intn(4))
		if trial%3 == 0 { // wide enough for bitsets of several words
			items := make([]Regex, 40+rng.Intn(60))
			for i := range items {
				items[i] = randRegex(rng, 3)
			}
			re = Star{Inner: Alt{Items: items}}
		}
		a := Compile(re)
		run = a.Reuse(run)
		labels := make([]string, rng.Intn(5))
		for i := range labels {
			labels[i] = syms[rng.Intn(2)]
		}
		alive := true
		for _, lab := range labels {
			if alive = run.Step(lab); !alive {
				break
			}
		}
		if got, want := alive && run.Accepting(), a.Match(labels); got != want {
			t.Fatalf("regex %v, input %v: reused run=%v match=%v", re, labels, got, want)
		}
	}
}
