package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// The string-keyed local compute the flat-window kernels replaced, kept as
// parity references: map[string] indexes over relation.KeyAt keys, one
// fresh tuple per output row, output parts grown from zero.

// refJoinPart is BinaryJoin's former per-server hash join.
func refJoinPart(pa, pb *mpc.Columns, aKey, bKey []int, aCore int, bExtraPos []int, ring relation.Semiring) mpc.Columns {
	idx := make(map[string][]mpc.Item)
	for i := 0; i < pb.Len(); i++ {
		it := pb.Item(i)
		k := relation.KeyAt(it.T, bKey)
		idx[k] = append(idx[k], it)
	}
	var part mpc.Columns
	for i := 0; i < pa.Len(); i++ {
		ai := pa.Item(i)
		k := relation.KeyAt(ai.T, aKey)
		for _, bi := range idx[k] {
			t := make(relation.Tuple, 0, aCore+len(bExtraPos))
			t = append(t, ai.T[:aCore]...)
			for _, p := range bExtraPos {
				t = append(t, bi.T[p])
			}
			part.Append(t, ring.Mul(ai.A, bi.A))
		}
	}
	return part
}

// refDegreePart is joinDegrees' former per-server merge.
func refDegreePart(pa, pb *mpc.Columns, posA, posB []int) mpc.Columns {
	bdeg := make(map[string]int64)
	for i := 0; i < pb.Len(); i++ {
		bdeg[relation.KeyAt(pb.Tuple(i), posB)] = pb.Annot(i)
	}
	var out mpc.Columns
	for i := 0; i < pa.Len(); i++ {
		tup := pa.Tuple(i)
		db, ok := bdeg[relation.KeyAt(tup, posA)]
		if !ok {
			continue
		}
		t := make(relation.Tuple, 0, len(posA)+2)
		for _, p := range posA {
			t = append(t, tup[p])
		}
		t = append(t, relation.Value(pa.Annot(i)), relation.Value(db))
		out.Append(t, 1)
	}
	return out
}

// refProjectLocal is ProjectLocal's former MapLocal form.
func refProjectLocal(d *mpc.Dist, schema relation.Schema) *mpc.Dist {
	pos := d.Positions([]relation.Attr(schema))
	return d.MapLocal(schema, func(_ int, it mpc.Item) []mpc.Item {
		t := make(relation.Tuple, len(pos))
		for i, p := range pos {
			t[i] = it.T[p]
		}
		return []mpc.Item{{T: t, A: it.A}}
	})
}

// kernelRings are the semirings the kernels are checked under, each with
// a generator of annotations that exercises it.
var kernelRings = []struct {
	ring  relation.Semiring
	annot func(rng *rand.Rand) int64
}{
	{relation.CountRing, func(*rand.Rand) int64 { return 1 }},
	{relation.CountRing, func(rng *rand.Rand) int64 { return int64(1 + rng.Intn(5)) }},
	{relation.MaxPlusRing, func(rng *rand.Rand) int64 { return int64(rng.Intn(21) - 10) }},
	{relation.BoolRing, func(rng *rand.Rand) int64 { return int64(rng.Intn(2)) }},
}

// randPart returns n rows of the given width with values in [0, dom).
func randPart(rng *rand.Rand, n, width, dom int, annot func(*rand.Rand) int64) *mpc.Columns {
	var c mpc.Columns
	row := make(relation.Tuple, width)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.Intn(dom))
		}
		c.Append(row, annot(rng))
	}
	return &c
}

// joinShape is one layout of a per-server join: a rows carry aCore query
// values plus the two degree columns, b rows the same; the key sits at
// aKey / bKey and bExtra lists the b positions the output appends.
type joinShape struct {
	name        string
	aCore, bW   int
	aKey, bKey  []int
	bExtra      []int
	na, nb, dom int
}

var joinShapes = []joinShape{
	{"one attribute", 2, 4, []int{1}, []int{0}, []int{1}, 120, 90, 12},
	{"two attributes", 3, 5, []int{0, 2}, []int{1, 0}, []int{2}, 150, 150, 4},
	{"cartesian", 2, 4, []int{}, []int{}, []int{0, 1}, 25, 30, 50},
	{"dense distinct keys", 2, 4, []int{0}, []int{0}, []int{1}, 300, 300, 300},
	{"one heavy key", 2, 4, []int{1}, []int{0}, []int{1}, 40, 40, 1},
	{"empty a", 2, 4, []int{1}, []int{0}, []int{1}, 0, 30, 5},
	{"empty b", 2, 4, []int{1}, []int{0}, []int{1}, 30, 0, 5},
}

func TestJoinPartMatchesStringKeyedJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range joinShapes {
		for _, kr := range kernelRings {
			t.Run(fmt.Sprintf("%s/%s", sh.name, kr.ring.Name), func(t *testing.T) {
				pa := randPart(rng, sh.na, sh.aCore+2, sh.dom, kr.annot)
				pb := randPart(rng, sh.nb, sh.bW, sh.dom, kr.annot)
				got := joinPart(pa, pb, sh.aKey, sh.bKey, sh.aCore, sh.bExtra, kr.ring)
				want := refJoinPart(pa, pb, sh.aKey, sh.bKey, sh.aCore, sh.bExtra, kr.ring)
				if !got.Equal(&want) {
					t.Fatalf("joinPart: %d rows, reference %d rows, contents differ", got.Len(), want.Len())
				}
				if want.Len() > 0 && got.Width() != want.Width() {
					t.Fatalf("joinPart width %d, reference %d", got.Width(), want.Width())
				}
			})
		}
	}
}

func TestDegreePartMatchesStringKeyedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range joinShapes {
		t.Run(sh.name, func(t *testing.T) {
			deg := func(*rand.Rand) int64 { return int64(1 + rng.Intn(9)) }
			pa := randPart(rng, sh.na, sh.aCore+2, sh.dom, deg)
			pb := randPart(rng, sh.nb, sh.bW, sh.dom, deg)
			got := degreePart(pa, pb, sh.aKey, sh.bKey)
			want := refDegreePart(pa, pb, sh.aKey, sh.bKey)
			if !got.Equal(&want) {
				t.Fatalf("degreePart: %d rows, reference %d rows, contents differ", got.Len(), want.Len())
			}
		})
	}
}

// TestLocalKernelsAcrossWidths checks ProjectLocal and EmitDist against
// their per-row references, and BinaryJoin's per-server output for
// byte-identity, at data-plane widths 1, 2 and 8, under every ring.
func TestLocalKernelsAcrossWidths(t *testing.T) {
	for _, kr := range kernelRings {
		rng := rand.New(rand.NewSource(31))
		r1 := relation.New("R1", relation.NewSchema(1, 2))
		r2 := relation.New("R2", relation.NewSchema(2, 3))
		for i := 0; i < 300; i++ {
			r1.AddAnnotated(kr.annot(rng), relation.Value(rng.Intn(40)), relation.Value(rng.Intn(6)))
			r2.AddAnnotated(kr.annot(rng), relation.Value(rng.Intn(6)), relation.Value(rng.Intn(40)))
		}
		in := NewInstance(hypergraph.Line2(), r1, r2)
		in.Ring = kr.ring
		proj := relation.NewSchema(3, 1)
		oracle := Naive(in)

		var first *mpc.Dist
		for _, width := range []int{1, 2, 8} {
			prev := runtime.SetParallelism(width)
			c := mpc.NewCluster(8)
			dists := LoadInstance(c, in)
			res := BinaryJoin(dists[0], dists[1], in.Ring, 5, nil)
			got, want := ProjectLocal(res, proj), refProjectLocal(res, proj)
			emitted := mpc.NewCollectEmitter(proj)
			EmitDist(res, proj, emitted)
			runtime.SetParallelism(prev)

			name := fmt.Sprintf("%s width %d", kr.ring.Name, width)
			relEqual(t, res.ToRelation("got"), oracle)
			if first == nil {
				first = res
			}
			for s := range res.Parts {
				if !res.Parts[s].Equal(&first.Parts[s]) {
					t.Fatalf("%s: BinaryJoin server %d differs from width 1", name, s)
				}
				if !got.Parts[s].Equal(&want.Parts[s]) {
					t.Fatalf("%s: ProjectLocal server %d differs from the MapLocal reference", name, s)
				}
			}
			ref := want.ToRelation("want")
			if emitted.Rel.Size() != ref.Size() {
				t.Fatalf("%s: EmitDist emitted %d rows, want %d", name, emitted.Rel.Size(), ref.Size())
			}
			for i, tu := range ref.Tuples {
				if !reflect.DeepEqual(tu, emitted.Rel.Tuples[i]) || ref.Annots[i] != emitted.Rel.Annots[i] {
					t.Fatalf("%s: EmitDist row %d = %v/%d, want %v/%d", name, i,
						emitted.Rel.Tuples[i], emitted.Rel.Annots[i], tu, ref.Annots[i])
				}
			}
		}
	}
}

// TestJoinPartAllocsIndependentOfOut is the AllocsPerRun ceiling of the
// per-server join: one index build, one match list, one output buffer, one
// scratch row, and the annotation column when the rows carry one —
// whatever OUT is.
func TestJoinPartAllocsIndependentOfOut(t *testing.T) {
	const ceiling = 5
	rng := rand.New(rand.NewSource(37))
	for _, annotated := range []bool{false, true} {
		annot := func(*rand.Rand) int64 { return 1 }
		if annotated {
			annot = func(rng *rand.Rand) int64 { return int64(2 + rng.Intn(3)) }
		}
		for _, n := range []int{4, 64, 512} { // one key: OUT = n²
			pa := randPart(rng, n, 4, 1, annot)
			pb := randPart(rng, n, 4, 1, annot)
			join := func() {
				joinPart(pa, pb, []int{1}, []int{0}, 2, []int{1}, relation.CountRing)
			}
			if got := testing.AllocsPerRun(5, join); got > ceiling {
				t.Fatalf("annotated=%v OUT=%d: joinPart allocates %.0f per call, ceiling %d",
					annotated, n*n, got, ceiling)
			}
		}
	}
}
