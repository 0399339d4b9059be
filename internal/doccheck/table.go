package doccheck

import (
	"encoding/binary"
	"hash/maphash"
	"unsafe"
)

// This file holds the hash table behind KeyIndex and InclusionIndex: an
// open-addressing set of attribute tuples, each with two occurrence counts
// and the position of its first occurrence. Neither its cells nor its
// entries hold a pointer, so the garbage collector never scans them, and a
// tuple's bytes are copied once, on its first insert, into one
// append-only arena. Callers may therefore hand it views of bytes they do
// not own, such as a scanner's attribute values.

// seed keys every table's hash. It is drawn once per process, so values
// chosen to collide under one run's hash do not collide under the next.
var seed = maphash.MakeSeed()

// Initial sizes, allocated on a table's first insert: an index that never
// receives a tuple allocates nothing.
const (
	minCells   = 8
	minEntries = 4
	minArena   = 64
)

// cell is one slot of the open-addressing array: the low 32 bits of its
// tuple's hash, which also fix the cell's home, and the index of its entry
// plus one, so that the zero cell is empty.
type cell struct {
	hash uint32
	ent  uint32
}

// entry is one tuple: where its record starts in the arena, its two
// occurrence counts and the position of its first occurrence. A KeyIndex
// counts in a; an InclusionIndex counts child occurrences in a, parent
// occurrences in b, and keeps the first child occurrence. A free entry
// has both counts zero and a negative off that links the free list.
type entry struct {
	off   int
	a, b  int
	first SrcPos
}

// table is a set of tuples under linear probing. An arena record is the
// owning entry's index (4 bytes, little-endian), the tuple's length as a
// uvarint and the tuple's bytes. Removing a tuple frees its cell and its
// entry at once, for the next new tuple to reuse, and leaves its record
// dead; once dead records outweigh live ones, the arena is compacted in
// place. The zero table is empty and ready to use.
type table struct {
	cells     []cell // a power of two long, at most 3/4 full
	entries   []entry
	arena     []byte
	spare     int // the first free entry plus one; 0 when none is free
	live      int // entries in use: those cells point at
	deadBytes int // arena bytes of dead records
}

// hash returns the 32 bits of t's hash a cell keeps.
//
//xic:hotpath
func hash(t string) uint32 { return uint32(maphash.String(seed, t)) }

// view is b as a string, without copying: the bytes must not change while
// the string is in use.
//
//xic:hotpath
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// record returns the tuple of the arena record at off and the record's
// length. A tuple under 128 bytes has a one-byte length, read directly.
//
//xic:hotpath
func (tb *table) record(off int) (t string, size int) {
	start, n := off+5, int(tb.arena[off+4])
	if n >= 0x80 {
		u, k := binary.Uvarint(tb.arena[off+4:])
		start, n = off+4+k, int(u)
	}
	return view(tb.arena[start : start+n]), start + n - off
}

// tuple is entry i's tuple, viewed in place: valid until the table next
// changes.
//
//xic:hotpath
func (tb *table) tuple(i int) string {
	t, _ := tb.record(tb.entries[i].off)
	return t
}

// find looks t up. It returns t's hash, the cell where the probe stopped —
// t's own, or the empty cell where t would go — and t's entry, or -1.
//
//xic:hotpath
func (tb *table) find(t string) (h uint32, at, ent int) {
	h = hash(t)
	if len(tb.cells) == 0 {
		return h, -1, -1
	}
	mask := uint32(len(tb.cells) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		c := tb.cells[i]
		if c.ent == 0 {
			return h, int(i), -1
		}
		if c.hash == h && tb.tuple(int(c.ent-1)) == t {
			return h, int(i), int(c.ent - 1)
		}
	}
}

// get returns t's entry, or nil.
//
//xic:hotpath
func (tb *table) get(t string) *entry {
	if _, _, i := tb.find(t); i >= 0 {
		return &tb.entries[i]
	}
	return nil
}

// put returns t's entry, adding one with zero counts when t is absent;
// the caller counts an occurrence in it before the table next changes.
// Only the first insert of a tuple copies its bytes.
//
//xic:hotpath
func (tb *table) put(t string) *entry {
	h, at, i := tb.find(t)
	if i >= 0 {
		return &tb.entries[i]
	}
	if 4*(tb.live+1) > 3*len(tb.cells) {
		tb.grow() //xic:ignore hotalloc cold: the cell array doubles, once per doubling of the live tuples
		at = tb.home(h)
	}
	size := 4 + uvarintLen(len(t)) + len(t)
	if tb.spare == 0 && len(tb.entries) == cap(tb.entries) || size > cap(tb.arena)-len(tb.arena) {
		tb.reserve(size) //xic:ignore hotalloc cold: the entries and the arena grow geometrically, as append grows a slice
	}
	if tb.spare > 0 {
		i = tb.spare - 1
		tb.spare = -1 - tb.entries[i].off
	} else {
		i = len(tb.entries)
		tb.entries = tb.entries[:i+1]
	}
	off := len(tb.arena)
	tb.arena = tb.arena[:off+size]
	binary.LittleEndian.PutUint32(tb.arena[off:], uint32(i))
	copy(tb.arena[off+size-len(t):], t)
	binary.PutUvarint(tb.arena[off+4:], uint64(len(t)))
	tb.entries[i] = entry{off: off}
	tb.cells[at] = cell{hash: h, ent: uint32(i + 1)}
	tb.live++
	return &tb.entries[i]
}

// uvarintLen is the length of n as a uvarint.
//
//xic:hotpath
func uvarintLen(n int) int {
	k := 1
	for ; n >= 0x80; n >>= 7 {
		k++
	}
	return k
}

// home returns the first empty cell of h's probe sequence.
//
//xic:hotpath
func (tb *table) home(h uint32) int {
	mask := uint32(len(tb.cells) - 1)
	i := h & mask
	for tb.cells[i].ent != 0 {
		i = (i + 1) & mask
	}
	return int(i)
}

// free removes the tuple of entry i, whose counts the caller has brought
// to zero and whose cell is at: the cell and the entry are freed at once,
// and once dead records outweigh live ones, the arena is compacted.
//
//xic:hotpath
func (tb *table) free(at, i int) {
	tb.unslot(at)
	_, size := tb.record(tb.entries[i].off)
	tb.deadBytes += size
	tb.entries[i].off = -1 - tb.spare
	tb.spare = i + 1
	if tb.live--; tb.live == 0 {
		tb.entries, tb.arena, tb.spare, tb.deadBytes = tb.entries[:0], tb.arena[:0], 0, 0
	} else if tb.deadBytes > len(tb.arena)-tb.deadBytes {
		tb.compact()
	}
}

// unslot empties cell i by backward shift: each later cell of the probe
// run that may move to the hole moves there, so no tombstone is left.
//
//xic:hotpath
func (tb *table) unslot(i int) {
	mask := len(tb.cells) - 1
	for j := (i + 1) & mask; tb.cells[j].ent != 0; j = (j + 1) & mask {
		// Cell j may fill the hole unless its home lies cyclically in (i, j].
		if home := int(tb.cells[j].hash) & mask; (j-home)&mask >= (j-i)&mask {
			tb.cells[i] = tb.cells[j]
			i = j
		}
	}
	tb.cells[i] = cell{}
}

// compact slides the live records down over the dead ones, in place. A
// record is live when its entry still starts there: a freed entry's off
// is negative, and a reused one's points at a later record. It keeps the
// arena's buffer, so a table whose tuples churn allocates nothing once
// warm, and it moves bytes only: entries keep their indexes, so no cell
// changes. It runs once dead bytes outweigh live ones, so it costs O(1)
// per byte freed.
func (tb *table) compact() {
	w := 0
	for r := 0; r < len(tb.arena); {
		_, size := tb.record(r)
		if i := binary.LittleEndian.Uint32(tb.arena[r:]); tb.entries[i].off == r {
			copy(tb.arena[w:], tb.arena[r:r+size])
			tb.entries[i].off = w
			w += size
		}
		r += size
	}
	tb.arena = tb.arena[:w]
	tb.deadBytes = 0
}

// grow doubles the cell array and reinserts every live cell.
func (tb *table) grow() {
	old := tb.cells
	tb.cells = make([]cell, max(2*len(old), minCells))
	mask := uint32(len(tb.cells) - 1)
	for _, c := range old {
		if c.ent == 0 {
			continue
		}
		i := c.hash & mask
		for tb.cells[i].ent != 0 {
			i = (i + 1) & mask
		}
		tb.cells[i] = c
	}
}

// reserve makes room for one more entry, unless one is free, and for a
// record of size bytes, growing whichever is full.
func (tb *table) reserve(size int) {
	if tb.spare == 0 && len(tb.entries) == cap(tb.entries) {
		tb.entries = grown(tb.entries, 1, minEntries)
	}
	if size > cap(tb.arena)-len(tb.arena) {
		tb.arena = grown(tb.arena, size, minArena)
	}
}

// grown returns a copy of s with room for n more elements and at least
// least in all: the capacity doubles while small and grows by a quarter
// once large, as append's does.
func grown[T any](s []T, n, least int) []T {
	c := cap(s)
	if c < 1024 {
		c *= 2
	} else {
		c += c / 4
	}
	g := make([]T, len(s), max(c, len(s)+n, least))
	copy(g, s)
	return g
}
