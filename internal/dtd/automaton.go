package dtd

import (
	"fmt"
	"math"
	"math/bits"
)

// Automaton is a Glushkov position automaton for a content model. It decides
// membership of a children-label sequence in the language of P(τ) in
// O(sequence length × positions) time without backtracking, for arbitrary
// (including non-deterministic) content models.
//
// xic:frozen
type Automaton struct {
	symbols  []string          // symbol at each position (element type or TextSymbol)
	first    bitset            // positions that can start a word
	last     bitset            // positions that can end a word
	follow   []bitset          // follow sets, indexed by position
	bySymbol map[string]bitset // positions carrying each symbol
	nullable bool
	words    int // bitset width in uint64 words
}

// Compile builds the automaton for a content model. Its memory and time
// grow with the square of the model's positions; DTD.Check bounds them by
// MaxPositions.
func Compile(r Regex) *Automaton {
	n := positions(r, math.MaxInt32)
	a := &Automaton{
		symbols:  make([]string, 0, n),
		bySymbol: make(map[string]bitset),
	}
	a.words = (n + 63) / 64
	a.follow = make([]bitset, n)
	for i := range a.follow {
		a.follow[i] = newBitset(a.words)
	}
	info := a.build(Desugar(r))
	a.first = info.first
	a.last = info.last
	a.nullable = info.nullable
	return a
}

// Match reports whether the label sequence is in the content model language.
func (a *Automaton) Match(labels []string) bool {
	r := a.Start()
	for _, lab := range labels {
		if !r.Step(lab) {
			return false
		}
	}
	return r.Accepting()
}

// Run is the incremental matching state of one word against the automaton:
// the set of positions reachable after the symbols consumed so far. A Run
// holds two bitsets regardless of word length, which is what makes
// streaming conformance checking memory-bounded — one live Run per open
// element, none per consumed child. A Run is single-goroutine state; the
// Automaton it came from may be shared freely.
type Run struct {
	a       *Automaton
	cur     bitset
	scratch bitset
	started bool // at least one symbol consumed
	dead    bool // no continuation can match
}

// Start returns a fresh Run positioned before the first symbol.
func (a *Automaton) Start() *Run {
	return &Run{a: a, cur: newBitset(a.words), scratch: newBitset(a.words)}
}

// Reset rewinds the Run to the initial state so it can be reused for
// another word, sparing an allocation per element on streaming hot paths.
func (r *Run) Reset() {
	r.started = false
	r.dead = false
}

// Reuse returns a Run of a positioned before the first symbol, rebinding r
// in place when its buffers are large enough, so one Run can serve
// elements of different types in turn. A nil or too small r gets a fresh
// Run.
func (a *Automaton) Reuse(r *Run) *Run {
	if r == nil || cap(r.cur) < a.words {
		return a.Start()
	}
	r.a = a
	r.cur = r.cur[:a.words]
	r.scratch = r.scratch[:a.words]
	r.Reset()
	return r
}

// Step consumes one symbol. It reports whether some word with the consumed
// sequence as a prefix is still in the language; once it returns false the
// Run is dead and stays dead until Reset.
func (r *Run) Step(label string) bool {
	if r.dead {
		return false
	}
	pos, ok := r.a.bySymbol[label]
	if !ok {
		r.dead = true
		return false
	}
	if !r.started {
		r.cur.intersectInto(r.a.first, pos)
	} else {
		r.scratch.clear()
		for wi, w := range r.cur {
			for w != 0 {
				p := wi*64 + bits.TrailingZeros64(w)
				r.scratch.or(r.a.follow[p])
				w &= w - 1
			}
		}
		r.cur.intersectInto(r.scratch, pos)
	}
	r.started = true
	if r.cur.empty() {
		r.dead = true
		return false
	}
	return true
}

// Accepting reports whether the consumed sequence itself is in the language.
func (r *Run) Accepting() bool {
	if r.dead {
		return false
	}
	if !r.started {
		return r.a.nullable
	}
	return r.cur.intersects(r.a.last)
}

// glushkovInfo carries the nullable/first/last attributes of a subexpression.
type glushkovInfo struct {
	nullable bool
	first    bitset
	last     bitset
}

// MaxPositions bounds the positions of one content model: its element
// type and #PCDATA occurrences once x+ is rewritten as (x, x*). Its
// automaton keeps a follow set of MaxPositions bits per position, 128 KB
// at the bound. Real content models have a few dozen positions.
const MaxPositions = 1024

// positions counts r's positions, as Compile lays them out, bottom-up on
// the sugared model: x+ has twice x's. Counts saturate at limit+1, so a
// model that nests + k deep costs time linear in its size, where walking
// its desugared form would take 2^k steps.
func positions(r Regex, limit int) int {
	switch x := r.(type) {
	case Name, Text:
		return 1
	case Seq:
		return sumPositions(x.Items, limit)
	case Alt:
		return sumPositions(x.Items, limit)
	case Star:
		return positions(x.Inner, limit)
	case Opt:
		return positions(x.Inner, limit)
	case Plus:
		return min(2*positions(x.Inner, limit), limit+1)
	}
	return 0 // Empty
}

// sumPositions is the saturating sum of the items' positions.
func sumPositions(items []Regex, limit int) int {
	n := 0
	for _, it := range items {
		n = min(n+positions(it, limit), limit+1)
	}
	return n
}

// build allocates positions in left-to-right order and fills follow sets.
func (a *Automaton) build(r Regex) glushkovInfo {
	switch x := r.(type) {
	case Empty:
		return glushkovInfo{nullable: true, first: newBitset(a.words), last: newBitset(a.words)}
	case Text:
		return a.leaf(TextSymbol)
	case Name:
		return a.leaf(x.Type)
	case Seq:
		info := a.build(x.Items[0])
		for _, it := range x.Items[1:] {
			right := a.build(it)
			a.followAll(info.last, right.first) // follow(last(left)) ⊇ first(right)
			first := newBitset(a.words)
			first.or(info.first)
			if info.nullable {
				first.or(right.first)
			}
			last := newBitset(a.words)
			last.or(right.last)
			if right.nullable {
				last.or(info.last)
			}
			info = glushkovInfo{
				nullable: info.nullable && right.nullable,
				first:    first,
				last:     last,
			}
		}
		return info
	case Alt:
		info := glushkovInfo{first: newBitset(a.words), last: newBitset(a.words)}
		for _, it := range x.Items {
			sub := a.build(it)
			info.nullable = info.nullable || sub.nullable
			info.first.or(sub.first)
			info.last.or(sub.last)
		}
		return info
	case Star:
		sub := a.build(x.Inner)
		a.followAll(sub.last, sub.first)
		return glushkovInfo{nullable: true, first: sub.first, last: sub.last}
	}
	panic(fmt.Sprintf("dtd: unexpected node %T after Desugar", r))
}

// followAll adds next to the follow set of every position in last,
// reading last in place.
func (a *Automaton) followAll(last, next bitset) {
	for wi, w := range last {
		for w != 0 {
			a.follow[wi*64+bits.TrailingZeros64(w)].or(next)
			w &= w - 1
		}
	}
}

func (a *Automaton) leaf(sym string) glushkovInfo {
	p := len(a.symbols)
	//xic:ignore frozen construction-phase append before Compile publishes the automaton
	a.symbols = append(a.symbols, sym)
	set, ok := a.bySymbol[sym]
	if !ok {
		set = newBitset(a.words)
		//xic:ignore frozen construction-phase write before Compile publishes the automaton
		a.bySymbol[sym] = set
	}
	set.set(p)
	one := newBitset(a.words)
	one.set(p)
	last := newBitset(a.words)
	last.set(p)
	return glushkovInfo{nullable: false, first: one, last: last}
}

// bitset is a fixed-width set of position indices.
type bitset []uint64

func newBitset(words int) bitset {
	return make(bitset, words)
}

func (b bitset) set(i int) { b[i/64] |= 1 << uint(i%64) }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitset) intersects(o bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// intersectInto sets b = x ∩ y.
func (b bitset) intersectInto(x, y bitset) {
	for i := range b {
		b[i] = x[i] & y[i]
	}
}
