package dtd

import (
	"math/rand"
	"testing"
)

// TestPositionSetRoundTrip saves the Run's position set after every
// nonempty prefix of random words over (a (b|c)* d?)* and checks that
// restoring it and replaying the suffix agrees with an uninterrupted run.
func TestPositionSetRoundTrip(t *testing.T) {
	a := Compile(Star{Inner: Seq{Items: []Regex{
		Name{Type: "a"},
		Star{Inner: Alt{Items: []Regex{Name{Type: "b"}, Name{Type: "c"}}}},
		Opt{Inner: Name{Type: "d"}},
	}}})
	alphabet := []string{"a", "b", "c", "d", "x"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		word := make([]string, 1+rng.Intn(12))
		for i := range word {
			word[i] = alphabet[rng.Intn(len(alphabet))]
		}
		cut := 1 + rng.Intn(len(word))
		ref := a.Start()
		for _, s := range word {
			ref.Step(s)
		}
		r := a.Start()
		for _, s := range word[:cut] {
			r.Step(s)
		}
		set := make([]uint64, r.Words())
		r.SaveSet(set)
		if !r.SameSet(set) {
			t.Fatalf("word %v cut %d: run differs from the set it just saved", word, cut)
		}
		r.Reset() // poison the state past the save
		r.Step("b")
		r.RestoreSet(set)
		if !r.SameSet(set) {
			t.Fatalf("word %v cut %d: restored run differs from its set", word, cut)
		}
		for _, s := range word[cut:] {
			r.Step(s)
		}
		if got, want := r.Accepting(), ref.Accepting(); got != want {
			t.Fatalf("word %v cut %d: restored run accepting=%v, reference=%v", word, cut, got, want)
		}
		if got, want := r.dead, ref.dead; got != want {
			t.Fatalf("word %v cut %d: restored run dead=%v, reference=%v", word, cut, got, want)
		}
	}
}

// TestPositionSetConverges: under the non-deterministic ((a|b)*, a,
// (a|b)*), the runs over "b a b b" and "a a b b" differ after one and
// two symbols — the edited run may already have passed the mandatory a —
// and agree from the third on, which is where a replay resuming before
// an edit may stop.
func TestPositionSetConverges(t *testing.T) {
	ab := Star{Inner: Alt{Items: []Regex{Name{Type: "a"}, Name{Type: "b"}}}}
	a := Compile(Seq{Items: []Regex{ab, Name{Type: "a"}, ab}})
	old, edited := a.Start(), a.Start()
	oldSets := make([][]uint64, 0, 4)
	for _, s := range []string{"b", "a", "b", "b"} {
		old.Step(s)
		set := make([]uint64, old.Words())
		old.SaveSet(set)
		oldSets = append(oldSets, set)
	}
	for i, s := range []string{"a", "a", "b", "b"} {
		edited.Step(s)
		if same := edited.SameSet(oldSets[i]); same != (i >= 2) {
			t.Fatalf("after symbol %d: SameSet = %v, want %v", i, same, i >= 2)
		}
	}
	if !edited.Accepting() || !old.Accepting() {
		t.Fatal("both words are in the language")
	}
}

// TestPositionSetDead: a dead Run saves the empty set, restoring the
// empty set yields a dead Run, and only the empty set matches one.
func TestPositionSetDead(t *testing.T) {
	a := Compile(Seq{Items: []Regex{Name{Type: "a"}, Name{Type: "b"}}})
	r := a.Start()
	r.Step("a")
	live := make([]uint64, r.Words())
	r.SaveSet(live)
	r.Step("x")
	empty := []uint64{^uint64(0)}
	r.SaveSet(empty)
	if empty[0] != 0 || r.SameSet(live) || !r.SameSet(empty) {
		t.Fatalf("dead run saved %b; SameSet(live)=%v", empty[0], r.SameSet(live))
	}
	r.RestoreSet(live)
	if !r.Step("b") || !r.Accepting() {
		t.Fatal("restored run should accept b")
	}
	r.RestoreSet(empty)
	if r.Step("b") || r.Accepting() {
		t.Fatal("run restored to the empty set should be dead")
	}
}

// TestPositionSetAllocFree: saving, restoring and comparing work in place
// (the session's edit path depends on it).
func TestPositionSetAllocFree(t *testing.T) {
	a := Compile(Star{Inner: Name{Type: "a"}})
	r := a.Start()
	r.Step("a")
	set := make([]uint64, r.Words())
	if allocs := testing.AllocsPerRun(100, func() {
		r.SaveSet(set)
		r.Step("a")
		r.RestoreSet(set)
		r.SameSet(set)
	}); allocs != 0 {
		t.Fatalf("position-set round trip allocates %v times per run, want 0", allocs)
	}
}
