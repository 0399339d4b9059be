package dtd

// A Run's state, once it has consumed at least one symbol, is its set of
// reachable positions: Words() 64-bit words. A caller that retains an
// element's children can save the set after each child, rewind a Run to
// any of them, and tell when a replay that diverged from the old run has
// met it again — two Runs with equal sets accept the same continuations,
// so a re-check after a local edit can stop there.

// Words returns the width of the Run's position sets in 64-bit words:
// the length of the slices SaveSet, RestoreSet and SameSet take.
func (r *Run) Words() int { return len(r.cur) }

// SaveSet copies the Run's position set into dst. The Run must have
// consumed at least one symbol; a dead Run saves the empty set.
//
//xic:hotpath
func (r *Run) SaveSet(dst []uint64) {
	if r.dead {
		clear(dst)
		return
	}
	copy(dst, r.cur)
}

// RestoreSet rewinds the Run to the state after a symbol at which SaveSet
// wrote src, on a Run of the same Automaton. An empty set restores a dead
// Run.
//
//xic:hotpath
func (r *Run) RestoreSet(src []uint64) {
	copy(r.cur, src)
	r.started = true
	r.dead = r.cur.empty()
}

// SameSet reports whether the Run, having consumed at least one symbol,
// is in exactly the state SaveSet wrote to set.
//
//xic:hotpath
func (r *Run) SameSet(set []uint64) bool {
	if r.dead {
		return bitset(set).empty()
	}
	for i, w := range r.cur {
		if set[i] != w {
			return false
		}
	}
	return true
}
