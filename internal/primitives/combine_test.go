package primitives

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// refLocalCombine is localCombine's former string-keyed form, kept as the
// parity reference for the KeyIndex combiner: per server, a map from the
// relation.KeyAt key to the running sum plus a map to a freshly projected
// representative tuple, keys emitted in order of first occurrence.
func refLocalCombine(d *mpc.Dist, pos []int, schema relation.Schema, ring relation.Semiring) *mpc.Dist {
	out := mpc.NewDist(d.C, schema)
	for s := range d.Parts {
		part := &d.Parts[s]
		agg := make(map[string]int64, part.Len())
		repr := make(map[string]relation.Tuple, part.Len())
		var order []string
		for i := 0; i < part.Len(); i++ {
			t := part.Tuple(i)
			k := relation.KeyAt(t, pos)
			if _, ok := agg[k]; !ok {
				agg[k] = ring.Zero
				proj := make(relation.Tuple, len(pos))
				for j, p := range pos {
					proj[j] = t[p]
				}
				repr[k] = proj
				order = append(order, k)
			}
			agg[k] = ring.Add(agg[k], part.Annot(i))
		}
		for _, k := range order {
			out.Parts[s].Append(repr[k], agg[k])
		}
	}
	return out
}

// refCountByKey is CountByKey's former form: copy the input with every
// annotation set to 1, then SumByKey over the count ring.
func refCountByKey(d *mpc.Dist, keyAttrs []relation.Attr, salt uint64) *mpc.Dist {
	ones := d.MapLocal(d.Schema, func(_ int, it mpc.Item) []mpc.Item {
		return []mpc.Item{{T: it.T, A: 1}}
	})
	return SumByKey(ones, keyAttrs, relation.CountRing, salt)
}

// randAnnotated distributes n rows of schema (1, 2, 3) over p servers,
// attribute values drawn from [0, dom), annotations from annot.
func randAnnotated(rng *rand.Rand, p, n, dom int, annot func() int64) (*mpc.Cluster, *mpc.Dist) {
	r := relation.New("R", relation.NewSchema(1, 2, 3))
	for i := 0; i < n; i++ {
		r.AddAnnotated(annot(), relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom)))
	}
	c := mpc.NewCluster(p)
	return c, mpc.FromRelation(c, r)
}

func TestLocalCombineMatchesStringKeyedCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rings := []struct {
		ring  relation.Semiring
		annot func() int64
	}{
		{relation.CountRing, func() int64 { return 1 }},
		{relation.CountRing, func() int64 { return int64(1 + rng.Intn(7)) }},
		{relation.MaxPlusRing, func() int64 { return int64(rng.Intn(41) - 20) }},
		{relation.BoolRing, func() int64 { return int64(rng.Intn(2)) }},
	}
	keys := []struct {
		name  string
		attrs []relation.Attr
		n     int
		dom   int
	}{
		{"one attribute", []relation.Attr{2}, 400, 9},
		{"two attributes reordered", []relation.Attr{3, 1}, 400, 5},
		{"dense distinct keys", []relation.Attr{1, 2, 3}, 600, 1 << 20},
		{"cartesian", []relation.Attr{}, 200, 4},
		{"mostly empty parts", []relation.Attr{1}, 3, 4},
	}
	for _, kr := range rings {
		for _, k := range keys {
			for _, width := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/width%d", kr.ring.Name, k.name, width), func(t *testing.T) {
					prev := runtime.SetParallelism(width)
					defer runtime.SetParallelism(prev)
					_, d := randAnnotated(rng, 8, k.n, k.dom, kr.annot)
					pos := d.Positions(k.attrs)
					schema := relation.NewSchema(k.attrs...)
					got := localCombine(d, pos, schema, kr.ring)
					want := refLocalCombine(d, pos, schema, kr.ring)
					for s := range got.Parts {
						if !got.Parts[s].Equal(&want.Parts[s]) {
							t.Fatalf("server %d: %d groups, reference %d, contents differ",
								s, got.Parts[s].Len(), want.Parts[s].Len())
						}
					}
				})
			}
		}
	}
}

// TestCountByKeyMatchesCopyThenSum checks that counting through the
// unit-annotation view gives the former copy-then-sum result, row for row
// and with the same load and rounds.
func TestCountByKeyMatchesCopyThenSum(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		c1, d1 := randAnnotated(rand.New(rand.NewSource(int64(width))), 8, 500, 6, func() int64 { return int64(2 + rng.Intn(5)) })
		c2, d2 := randAnnotated(rand.New(rand.NewSource(int64(width))), 8, 500, 6, func() int64 { return 1 })
		got := CountByKey(d1, []relation.Attr{2, 1}, 9)
		want := refCountByKey(d2, []relation.Attr{2, 1}, 9)
		runtime.SetParallelism(prev)
		for s := range got.Parts {
			if !got.Parts[s].Equal(&want.Parts[s]) {
				t.Fatalf("width %d server %d: CountByKey differs from copy-then-sum", width, s)
			}
		}
		if c1.MaxLoad() != c2.MaxLoad() || c1.Rounds() != c2.Rounds() {
			t.Fatalf("width %d: load/rounds %d/%d, reference %d/%d",
				width, c1.MaxLoad(), c1.Rounds(), c2.MaxLoad(), c2.Rounds())
		}
	}
}

// TestCombinePartAllocCeiling pins the combiner kernel at a fixed number
// of allocations per part — the index, the output values and annotations,
// one scratch row — however many rows and keys the part holds.
func TestCombinePartAllocCeiling(t *testing.T) {
	const ceiling = 4
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{16, 1024, 16384} {
		_, d := randAnnotated(rng, 1, n, 64, func() int64 { return 1 })
		part, pos := &d.Parts[0], d.Positions([]relation.Attr{1, 3})
		got := testing.AllocsPerRun(5, func() { combinePart(part, pos, relation.CountRing) })
		if got > ceiling {
			t.Fatalf("n=%d: combinePart allocates %.0f per part, ceiling %d", n, got, ceiling)
		}
	}
}
