package mpc

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// refGroups is the string-keyed reference for KeyIndex: distinct keys in
// order of first occurrence, each with its rows in row order.
func refGroups(c *Columns, pos []int) (keys []string, rows map[string][]int32) {
	rows = map[string][]int32{}
	for i := 0; i < c.Len(); i++ {
		k := relation.KeyAt(c.Tuple(i), pos)
		if _, ok := rows[k]; !ok {
			keys = append(keys, k)
		}
		rows[k] = append(rows[k], int32(i))
	}
	return keys, rows
}

// checkIndex compares an index over c against refGroups and probes it
// with every row of probe (at probePos), whose keys may or may not occur
// in c.
func checkIndex(t *testing.T, c *Columns, pos []int, probe *Columns, probePos []int) {
	t.Helper()
	ix := NewKeyIndex(c, pos)
	keys, rows := refGroups(c, pos)
	if ix.Groups() != len(keys) {
		t.Fatalf("Groups() = %d, want %d", ix.Groups(), len(keys))
	}
	for g, k := range keys {
		got, want := ix.Rows(g), rows[k]
		if len(got) != len(want) {
			t.Fatalf("group %d: %d rows, want %d", g, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("group %d: rows %v, want %v", g, got, want)
			}
		}
		if f := ix.Find(c.Tuple(int(want[0])), pos); f != g {
			t.Fatalf("Find(row %d) = %d, want group %d", want[0], f, g)
		}
	}
	group := map[string]int{}
	for g, k := range keys {
		group[k] = g
	}
	for i := 0; i < probe.Len(); i++ {
		want, ok := group[relation.KeyAt(probe.Tuple(i), probePos)]
		if !ok {
			want = -1
		}
		if got := ix.Find(probe.Tuple(i), probePos); got != want {
			t.Fatalf("Find(probe row %d = %v) = %d, want %d", i, probe.Tuple(i), got, want)
		}
	}
}

func randColumns(rng *rand.Rand, n, width, dom int) *Columns {
	c := MakeColumns(width, n)
	row := make(relation.Tuple, width)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.Intn(dom))
		}
		c.Append(row, 1)
	}
	return &c
}

func TestKeyIndexMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name       string
		n, w, dom  int
		shift      relation.Value // added to every value
		pos, probe []int
	}{
		{"one attribute", 200, 2, 30, 0, []int{0}, []int{1}},
		{"two attributes reordered", 300, 3, 6, 0, []int{2, 0}, []int{0, 2}},
		{"all distinct", 500, 1, 1 << 30, 0, []int{0}, []int{0}},
		{"one key", 64, 2, 1, 0, []int{1}, []int{0}},
		{"cartesian", 40, 2, 9, 0, []int{}, []int{}},
		{"empty part", 0, 2, 5, 0, []int{0}, []int{0}},
		{"negative values", 100, 2, 7, -3, []int{0, 1}, []int{1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := randColumns(rng, tc.n, tc.w, tc.dom)
			probe := randColumns(rng, 100, tc.w, tc.dom)
			for _, cols := range []*Columns{c, probe} {
				for i := range cols.values {
					cols.values[i] += tc.shift
				}
			}
			checkIndex(t, c, tc.pos, probe, tc.probe)
		})
	}
}

// TestKeyIndexProbeWrapsAround picks keys whose home slot is the table's
// last one, so every insert after the first and every probe for a missing
// key of that home walks off the end of the table and wraps to slot 0.
func TestKeyIndexProbeWrapsAround(t *testing.T) {
	const n = 16 // 32 slots
	pos := []int{0}
	var keys []relation.Value
	var missing relation.Value
	for v := relation.Value(0); len(keys) < n || missing == 0; v++ {
		if HashTupleAt(relation.Tuple{v}, pos, indexSalt)>>(64-5) != 31 {
			continue
		}
		if len(keys) < n {
			keys = append(keys, v)
		} else {
			missing = v
		}
	}
	c := MakeColumns(1, 2*n)
	for rep := 0; rep < 2; rep++ {
		for _, k := range keys {
			c.Append(relation.Tuple{k}, 1)
		}
	}
	probe := MakeColumns(1, 1)
	probe.Append(relation.Tuple{missing}, 1)
	checkIndex(t, &c, pos, &probe, pos)
	ix := NewKeyIndex(&c, pos)
	if ix.slots[0] == 0 {
		t.Fatal("no key wrapped around to slot 0")
	}
}

// TestKeyIndexAllocatesOnce pins the index's storage at one allocation per
// build and none per probe, whatever the part size.
func TestKeyIndexAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{16, 4096} {
		c := randColumns(rng, n, 2, n/4+1)
		pos := []int{0}
		if got := testing.AllocsPerRun(10, func() { NewKeyIndex(c, pos) }); got > 1 {
			t.Fatalf("n=%d: NewKeyIndex allocates %.0f per build, want 1", n, got)
		}
		ix := NewKeyIndex(c, pos)
		probe := c.Tuple(n / 2)
		if got := testing.AllocsPerRun(10, func() { ix.Find(probe, pos) }); got != 0 {
			t.Fatalf("n=%d: Find allocates %.0f per probe, want 0", n, got)
		}
	}
}

// TestUnannotatedView checks that the view reads every annotation as 1,
// leaves d untouched, and that appending to the view cannot write into d.
func TestUnannotatedView(t *testing.T) {
	c := NewCluster(2)
	d := NewDist(c, relation.NewSchema(1, 2))
	d.Parts[0] = MakeColumns(2, 8)
	d.Parts[0].Append(relation.Tuple{1, 2}, 5)
	d.Parts[0].Append(relation.Tuple{3, 4}, 7)
	v := d.Unannotated()
	if v.Size() != 2 || v.Parts[0].Annot(0) != 1 || v.Parts[0].Annot(1) != 1 {
		t.Fatalf("view annotations = %v, want all 1", v.All())
	}
	v.Parts[0].Append(relation.Tuple{9, 9}, 1)
	d.Parts[0].Append(relation.Tuple{5, 6}, 1)
	if got := v.Parts[0].Tuple(2); got[0] != 9 {
		t.Fatalf("append to d overwrote the view: row 2 = %v", got)
	}
	if d.Parts[0].Annot(0) != 5 || d.Parts[0].Tuple(2)[0] != 5 {
		t.Fatalf("view changed d: %v", d.All())
	}
}

// TestCollectEmitterCopiesBorrowedTuple pins the Emitter contract: the
// tuple is lent for the call only, so a producer that overwrites its
// scratch row after Emit must not change what was collected.
func TestCollectEmitterCopiesBorrowedTuple(t *testing.T) {
	col := NewCollectEmitter(relation.NewSchema(1, 2))
	sharded := NewShardedEmitter(relation.NewSchema(1, 2), 1)
	row := make(relation.Tuple, 2)
	for i := 0; i < 3; i++ {
		row[0], row[1] = relation.Value(i), relation.Value(10*i)
		MultiEmitter{col, sharded}.Emit(0, row, 1)
	}
	row[0], row[1] = -1, -1
	for _, rel := range []*relation.Relation{col.Rel, sharded.Rel()} {
		for i, tu := range rel.Tuples {
			if tu[0] != relation.Value(i) || tu[1] != relation.Value(10*i) {
				t.Fatalf("collected row %d = %v after the producer reused its scratch row", i, tu)
			}
		}
	}
}
