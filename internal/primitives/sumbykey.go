package primitives

import (
	"repro/internal/mpc"
	"repro/internal/relation"
)

// SumByKey aggregates annotations by key: it returns one item per distinct
// projection of d onto keyAttrs, annotated with the ring.Add-combination of
// all matching items' annotations.
//
// Local pre-aggregation (a combiner) runs before the shuffle, so each server
// sends at most one partial per local key and each receiver gets at most p
// partials per assigned key: load O(IN/p + p · keys/p) = O(IN/p) — the skew
// of the raw data never concentrates.
//
//lint:load perP trust the local combiner caps the shuffle at one partial per (server, key): O(IN/p + p) per receiver
//lint:rounds const
func SumByKey(d *mpc.Dist, keyAttrs []relation.Attr, ring relation.Semiring, salt uint64) *mpc.Dist {
	pos := d.Positions(keyAttrs)
	schema := relation.NewSchema(keyAttrs...)
	partials := localCombine(d, pos, schema, ring)
	shuffled := partials.ShuffleByKey(partials.Positions(keyAttrs), salt)
	return localCombine(shuffled, shuffled.Positions(keyAttrs), schema, ring)
}

// CountByKey returns the degree of every key: one item per distinct key,
// annotated with the number of matching items (annotations ignored — the
// combiner reads d through a view whose annotations are all 1).
//
//lint:load perP
//lint:rounds const
func CountByKey(d *mpc.Dist, keyAttrs []relation.Attr, salt uint64) *mpc.Dist {
	return SumByKey(d.Unannotated(), keyAttrs, relation.CountRing, salt)
}

// localCombine aggregates per server: one output item per (server, key),
// keys in order of first occurrence on the server.
func localCombine(d *mpc.Dist, pos []int, schema relation.Schema, ring relation.Semiring) *mpc.Dist {
	out := mpc.NewDist(d.C, schema)
	for s := range d.Parts {
		if d.Parts[s].Len() > 0 {
			out.Parts[s] = combinePart(&d.Parts[s], pos, ring)
		}
	}
	return out
}

// combinePart is localCombine's kernel on one part: one KeyIndex build,
// then one presized output row per group, its annotations folded with
// ring.Add in row order.
//
//lint:alloc-ceiling
func combinePart(part *mpc.Columns, pos []int, ring relation.Semiring) mpc.Columns {
	ix := mpc.NewKeyIndex(part, pos)
	out := mpc.MakeColumns(len(pos), ix.Groups())
	row := make(relation.Tuple, len(pos))
	for g := 0; g < ix.Groups(); g++ {
		rows := ix.Rows(g)
		t := part.Tuple(int(rows[0]))
		for j, p := range pos {
			row[j] = t[p]
		}
		agg := ring.Zero
		for _, r := range rows {
			agg = ring.Add(agg, part.Annot(int(r)))
		}
		out.Append(row, agg)
	}
	return out
}

// TotalSum combines all annotations into a single value via ring.Add,
// charging the coordinator tree: each server one partial (load p at the
// coordinator), then a broadcast of the single total (load 1 per server).
// Every server then "knows" the value; the caller gets it directly.
//
//lint:load const
//lint:rounds const
func TotalSum(d *mpc.Dist, ring relation.Semiring) int64 {
	total := ring.Zero
	for s := range d.Parts {
		part := &d.Parts[s]
		for i := 0; i < part.Len(); i++ {
			total = ring.Add(total, part.Annot(i))
		}
	}
	chargeCoordinatorExchange(d.C)
	return total
}

// TotalCount returns the number of items, charged like TotalSum.
//
//lint:load const
//lint:rounds const
func TotalCount(d *mpc.Dist) int64 {
	n := int64(d.Size())
	chargeCoordinatorExchange(d.C)
	return n
}
