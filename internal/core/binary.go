package core

import (
	"math"
	"sort"

	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// Synthetic attributes used to carry per-tuple statistics through
// exchanges. Negative ids cannot collide with query attributes.
const (
	synthDA relation.Attr = -101
	synthDB relation.Attr = -102
	synthN  relation.Attr = -103
)

// BinaryJoin computes a ⋈ b with the output-optimal load O(IN/p + √(OUT/p))
// of [8,18], which the paper uses as its basic subroutine.
//
// Keys are split by degree: a key is heavy when either side's degree
// exceeds the target load L0 = IN/p + √(OUT/p) or its output da·db exceeds
// OUT/p. Each heavy key gets its own ⌈da/L0⌉ × ⌈db/L0⌉ server grid
// (fragment-replicate), which bounds its per-server input by 2·L0 and
// output by ~OUT/p; light keys are hashed. The result stays distributed on
// the servers that produced it; em (optional) observes every result tuple.
//
//lint:load frac trust Theorem 5: degree-threshold grids cap each server at IN/p + sqrt(IN*OUT/p)
//lint:rounds const
func BinaryJoin(a, b *mpc.Dist, ring relation.Semiring, seed uint64, em mpc.Emitter) *mpc.Dist {
	c := a.C
	shared := a.Schema.Intersect(b.Schema)
	outSchema := a.Schema.Union(b.Schema)

	// Per-key degrees on both sides, co-located by key.
	dA := primitives.CountByKey(a, shared, seed^0x1)
	dB := primitives.CountByKey(b, shared, seed^0x2)
	jd := joinDegrees(dA, dB, shared, seed^0x3)

	// OUT = Σ_k da·db and the heavy-key directory, known cluster-wide.
	out := int64(0)
	for s := range jd.Parts {
		part := &jd.Parts[s]
		for i := 0; i < part.Len(); i++ {
			t := part.Tuple(i)
			da, db := int64(t[len(t)-2]), int64(t[len(t)-1])
			out += da * db
		}
	}
	primitives.TotalCount(jd) // charges the coordinator aggregation

	if out == 0 {
		return mpc.NewDist(c, outSchema)
	}
	inSize := int64(a.Size() + b.Size())
	l0 := inSize/int64(c.P) + int64(math.Ceil(math.Sqrt(float64(out)/float64(c.P))))
	if l0 < 1 {
		l0 = 1
	}
	dir := buildGrid(jd, shared, l0, out, c.P)
	chargeDirectory(c, len(dir))

	// Attach (da, db) to every tuple (multi-search); tuples whose key is
	// missing from the directory side cannot join and are dropped here.
	ax := attachDegrees(a, shared, jd)
	bx := attachDegrees(b, shared, jd)

	aPosKey := ax.Positions(shared)
	bPosKey := bx.Positions(shared)
	heavy := func(da, db int64) bool {
		return da > l0 || db > l0 || da*db > (out+int64(c.P)-1)/int64(c.P)
	}

	// Routing hashes rows in place. A light key goes to one hashed server,
	// returned as a shared read-only window of lightDst (the exchange never
	// mutates what a many callback returns); a heavy key's tuple picks a
	// row (a side) or column (b side) of its grid, whose destination lists
	// buildGrid precomputed.
	lightDst := make([]int, c.P)
	for i := range lightDst {
		lightDst[i] = i
	}
	routeSide := func(d *mpc.Dist, keyPos []int, isA bool, salt uint64) *mpc.Dist {
		allPos := make([]int, len(d.Schema))
		for i := range allPos {
			allPos[i] = i
		}
		return d.ReplicateBy(func(it mpc.Item) []int {
			n := len(it.T)
			da, db := int64(it.T[n-2]), int64(it.T[n-1])
			if !heavy(da, db) {
				dst := int(mpc.HashTupleAt(it.T, keyPos, seed^0x10) % uint64(c.P))
				return lightDst[dst : dst+1 : dst+1]
			}
			g := dir[relation.KeyAt(it.T, keyPos)]
			h := mpc.HashTupleAt(it.T, allPos, salt)
			if isA {
				return g.rowDst[h%uint64(len(g.rowDst))]
			}
			return g.colDst[h%uint64(len(g.colDst))]
		})
	}
	ra := routeSide(ax, aPosKey, true, seed^0x20)
	rb := routeSide(bx, bPosKey, false, seed^0x21)

	// Local hash join per server; results are born where they are
	// produced. Servers join in parallel — each writes only its own part —
	// and emission runs afterwards in server order, so the emitter sees the
	// exact serial sequence.
	res := mpc.NewDist(c, outSchema)
	bExtraPos := rb.Positions(b.Schema.Minus(a.Schema))
	runtime.Fork(len(ra.Parts), func(s int) {
		pa, pb := &ra.Parts[s], &rb.Parts[s]
		if pa.Len() == 0 || pb.Len() == 0 {
			return
		}
		res.Parts[s] = joinPart(pa, pb, aPosKey, bPosKey, len(a.Schema), bExtraPos, ring)
	})
	emitParts(res, em)
	return res
}

// joinPart is the per-server hash join: it indexes pb by its key, counts
// the output in one probe pass over pa, allocates the output once at that
// exact size, and writes each row through one reused scratch row — the
// first aCore values of the a row followed by the b row's values at
// bExtraPos. Rows come out in (a row, matching b rows in row order) order.
//
//lint:alloc-ceiling
func joinPart(pa, pb *mpc.Columns, aKey, bKey []int, aCore int, bExtraPos []int, ring relation.Semiring) mpc.Columns {
	ix := mpc.NewKeyIndex(pb, bKey)
	match := make([]int32, pa.Len())
	n := 0
	for i := range match {
		g := ix.Find(pa.Tuple(i), aKey)
		match[i] = int32(g)
		if g >= 0 {
			n += len(ix.Rows(g))
		}
	}
	if n == 0 {
		return mpc.Columns{}
	}
	out := mpc.MakeColumns(aCore+len(bExtraPos), n)
	row := make(relation.Tuple, aCore+len(bExtraPos))
	for i, g := range match {
		if g < 0 {
			continue
		}
		copy(row, pa.Tuple(i)[:aCore])
		aAnnot := pa.Annot(i)
		for _, r := range ix.Rows(int(g)) {
			bt := pb.Tuple(int(r))
			for j, p := range bExtraPos {
				row[aCore+j] = bt[p]
			}
			out.Append(row, ring.Mul(aAnnot, pb.Annot(int(r))))
		}
	}
	return out
}

// emitParts reports every item of res to em in server order — the serial
// emission sequence — after a parallel per-server production phase.
func emitParts(res *mpc.Dist, em mpc.Emitter) {
	if em == nil {
		return
	}
	for s := range res.Parts {
		part := &res.Parts[s]
		for i := 0; i < part.Len(); i++ {
			em.Emit(s, part.Tuple(i), part.Annot(i))
		}
	}
}

// gridInfo describes the server grid of one heavy key: rowDst[r] lists
// the servers of grid row r (where an a tuple hashed to row r goes), and
// colDst[k] those of grid column k (where a b tuple hashed to column k
// goes).
type gridInfo struct {
	rowDst, colDst [][]int
}

// joinDegrees co-locates the two degree tables by key and merges them into
// one table with schema shared ++ (synthDA, synthDB); keys present on only
// one side are dropped (they cannot contribute join results).
func joinDegrees(dA, dB *mpc.Dist, shared relation.Schema, salt uint64) *mpc.Dist {
	keyAttrs := []relation.Attr(shared)
	sa := dA.ShuffleByKey(dA.Positions(keyAttrs), salt)
	sb := dB.ShuffleByKey(dB.Positions(keyAttrs), salt)
	schema := append(append(relation.Schema{}, shared...), synthDA, synthDB)
	out := mpc.NewDist(dA.C, schema)
	posA := sa.Positions(keyAttrs)
	posB := sb.Positions(keyAttrs)
	for s := range sa.Parts {
		pa, pb := &sa.Parts[s], &sb.Parts[s]
		if pa.Len() > 0 && pb.Len() > 0 {
			out.Parts[s] = degreePart(pa, pb, posA, posB)
		}
	}
	return out
}

// degreePart merges one server's degree tables: every pa row whose key
// occurs in pb becomes (key, da, db), da and db being the rows'
// annotations (when pb repeats a key, its last row counts).
//
//lint:alloc-ceiling
func degreePart(pa, pb *mpc.Columns, posA, posB []int) mpc.Columns {
	ix := mpc.NewKeyIndex(pb, posB)
	k := len(posA)
	out := mpc.MakeColumns(k+2, min(pa.Len(), ix.Groups()))
	row := make(relation.Tuple, k+2)
	for i := 0; i < pa.Len(); i++ {
		t := pa.Tuple(i)
		g := ix.Find(t, posA)
		if g < 0 {
			continue
		}
		rows := ix.Rows(g)
		for j, p := range posA {
			row[j] = t[p]
		}
		row[k] = relation.Value(pa.Annot(i))
		row[k+1] = relation.Value(pb.Annot(int(rows[len(rows)-1])))
		out.Append(row, 1)
	}
	return out
}

// buildGrid assigns a server grid to every heavy key, deterministically by
// key order. Σ grid sizes = O(p) by the degree thresholds.
func buildGrid(jd *mpc.Dist, shared relation.Schema, l0, out int64, p int) map[string]gridInfo {
	keyPos := jd.Positions([]relation.Attr(shared))
	type entry struct {
		key    string
		da, db int64
	}
	var heavies []entry
	perServer := (out + int64(p) - 1) / int64(p)
	for s := range jd.Parts {
		part := &jd.Parts[s]
		for i := 0; i < part.Len(); i++ {
			t := part.Tuple(i)
			n := len(t)
			da, db := int64(t[n-2]), int64(t[n-1])
			if da > l0 || db > l0 || da*db > perServer {
				heavies = append(heavies, entry{relation.KeyAt(t, keyPos), da, db})
			}
		}
	}
	sort.Slice(heavies, func(i, j int) bool { return heavies[i].key < heavies[j].key })
	dir := make(map[string]gridInfo, len(heavies))
	base := 0
	for _, h := range heavies {
		rows := int((h.da + l0 - 1) / l0)
		cols := int((h.db + l0 - 1) / l0)
		if rows < 1 {
			rows = 1
		}
		if cols < 1 {
			cols = 1
		}
		// A single key's grid must not wrap around the cluster, or a pair
		// would meet on two servers and be reported twice.
		dims := []int{rows, cols}
		size := clampDims(dims, p)
		dir[h.key] = newGridInfo(base%p, dims[0], dims[1], p)
		base += size
	}
	return dir
}

// newGridInfo lays a rows × cols grid out on servers base, base+1, … (mod
// p), row-major.
func newGridInfo(base, rows, cols, p int) gridInfo {
	g := gridInfo{rowDst: make([][]int, rows), colDst: make([][]int, cols)}
	cells := make([]int, rows*cols)
	for i := range cells {
		cells[i] = (base + i) % p
	}
	for r := range g.rowDst {
		g.rowDst[r] = cells[r*cols : (r+1)*cols : (r+1)*cols]
	}
	for k := range g.colDst {
		col := make([]int, rows)
		for r := range col {
			col[r] = cells[r*cols+k]
		}
		g.colDst[k] = col
	}
	return g
}

// chargeDirectory charges gathering n directory entries to the coordinator
// and broadcasting them to every server.
//
//lint:load const trust callers pass O(p) directory entries, set by degree thresholds, not by the data
func chargeDirectory(c *mpc.Cluster, n int) {
	if n == 0 {
		return
	}
	c.Charge(0, n)
	loads := make([]int, c.P)
	for i := range loads {
		loads[i] = n
	}
	c.ChargeRound(loads)
}

// attachDegrees extends every tuple of d with the (da, db) of its key via
// the sorted lookup; tuples without a directory entry are dropped.
func attachDegrees(d *mpc.Dist, shared relation.Schema, jd *mpc.Dist) *mpc.Dist {
	keyAttrs := []relation.Attr(shared)
	outSchema := append(append(relation.Schema{}, d.Schema...), synthDA, synthDB)
	jdN := len(jd.Schema)
	var row relation.Tuple // Lookup copies each returned item before the next call
	return primitives.Lookup(d, keyAttrs, jd, keyAttrs, outSchema,
		func(it mpc.Item, r primitives.LookupResult) (mpc.Item, bool) {
			if !r.Found {
				return mpc.Item{}, false
			}
			row = append(append(row[:0], it.T...), r.DTuple[jdN-2], r.DTuple[jdN-1])
			return mpc.Item{T: row, A: it.A}, true
		})
}
