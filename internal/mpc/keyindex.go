package mpc

import "repro/internal/relation"

// indexSalt seeds the key index's hash. Slots are taken from the hash's
// high bits while routing takes hash % P — the low bits for power-of-two
// clusters — so the keys a shuffle co-located on one server still spread
// over the whole table, whatever salt the shuffle used.
const indexSalt = 0x6b6579696e646578

// KeyIndex is the local-compute hash index over one part's rows, keyed by
// the rows' projection onto pos. It is the one kernel behind every
// per-server hash join, degree merge and combiner above the data plane:
//
//   - keys are hashed straight out of the flat value buffer with
//     HashTupleAt, and compared value by value against a representative
//     row — no key string is ever built;
//   - the table is open-addressed with linear probing at load factor ≤ ½;
//   - rows with equal keys form a group, groups are numbered in order of
//     their key's first occurrence, and each group's rows are stored
//     contiguously in row order (Rows).
//
// All of an index's storage is one []int32 allocation, so building an
// index costs O(1) allocations whatever the part's size. The index reads
// src's buffer on every Find, so src must not change while the index is in
// use.
type KeyIndex struct {
	src   *Columns
	pos   []int
	shift uint    // slot = hash >> shift
	slots []int32 // per slot: group id + 1; 0 = empty
	start []int32 // per group: offset of its rows in order; start[Groups()] = rows
	order []int32 // rows grouped by key, row order within each group
}

// NewKeyIndex indexes every row of src by its projection onto pos. An
// empty pos gives every row the same key (one group, the cartesian case).
//
//lint:alloc-ceiling
func NewKeyIndex(src *Columns, pos []int) KeyIndex {
	n := src.rows
	size, bits := 1, uint(0)
	for size < 2*n {
		size <<= 1
		bits++
	}
	buf := make([]int32, size+4*n+1)
	x := KeyIndex{src: src, pos: pos, shift: 64 - bits, slots: buf[:size]}
	rowGroup := buf[size : size+n]
	first := buf[size+n : size+n : size+2*n] // per group: representative row
	mask := uint64(size - 1)
	w := src.width
	for i := 0; i < n; i++ {
		row := src.values[i*w : i*w+w]
		for s := HashTupleAt(row, pos, indexSalt) >> x.shift; ; s = (s + 1) & mask {
			g := x.slots[s] - 1
			if g < 0 {
				g = int32(len(first))
				first = append(first, int32(i))
				x.slots[s] = g + 1
				rowGroup[i] = g
				break
			}
			if x.keyEqual(int(first[g]), row, pos) {
				rowGroup[i] = g
				break
			}
		}
	}
	// Counting sort of the rows by group: stable, so each group keeps row
	// order. first is dead after the build loop and becomes the cursor.
	groups := len(first)
	x.start = buf[size+2*n : size+2*n+groups+1]
	x.order = buf[size+3*n+1 : size+4*n+1]
	for _, g := range rowGroup {
		x.start[g+1]++
	}
	for g := 0; g < groups; g++ {
		x.start[g+1] += x.start[g]
	}
	cursor := first[:groups]
	copy(cursor, x.start[:groups])
	for i, g := range rowGroup {
		x.order[cursor[g]] = int32(i)
		cursor[g]++
	}
	return x
}

// Groups returns the number of distinct keys.
func (x *KeyIndex) Groups() int { return len(x.start) - 1 }

// Rows returns the rows of group g in row order (shared, read-only).
func (x *KeyIndex) Rows(g int) []int32 { return x.order[x.start[g]:x.start[g+1]] }

// Find returns the group whose key equals t's projection onto tpos (which
// must list as many positions as the index's key), or -1 when there is
// none. The probe hashes t in place: it allocates nothing.
//
//lint:alloc-ceiling
func (x *KeyIndex) Find(t relation.Tuple, tpos []int) int {
	mask := uint64(len(x.slots) - 1)
	for s := HashTupleAt(t, tpos, indexSalt) >> x.shift; ; s = (s + 1) & mask {
		g := int(x.slots[s]) - 1
		if g < 0 {
			return -1
		}
		if x.keyEqual(int(x.order[x.start[g]]), t, tpos) {
			return g
		}
	}
}

// keyEqual reports whether src row r's key equals t's projection onto
// tpos, comparing value by value.
func (x *KeyIndex) keyEqual(r int, t relation.Tuple, tpos []int) bool {
	base := r * x.src.width
	for j, p := range x.pos {
		if x.src.values[base+p] != t[tpos[j]] {
			return false
		}
	}
	return true
}
