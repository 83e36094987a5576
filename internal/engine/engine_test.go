package engine_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
)

// wantRoute is the class-optimal routing the Figure 1 hierarchy prescribes;
// shape-specialized entries are keyed by catalog query where they differ
// from the class default.
var classRoute = map[hypergraph.Class]string{
	hypergraph.TallFlat:      "binhc",
	hypergraph.Hierarchical:  "rhier",
	hypergraph.RHierarchical: "rhier",
	hypergraph.Acyclic:       "acyclic",
	hypergraph.Cyclic:        "triangle",
}

// TestAutoDispatchCatalog asserts that every catalog query routes to an
// algorithm whose Applies accepts it, and that the route is the
// class-optimal one (or a cheaper shape specialization of it).
func TestAutoDispatchCatalog(t *testing.T) {
	specialized := map[string]bool{"line3": true, "hypercube": true, "triangle": true}
	for _, e := range hypergraph.Catalog() {
		a, err := engine.Auto(e.Q)
		if err != nil {
			t.Errorf("%s: Auto failed: %v", e.Name, err)
			continue
		}
		if !a.Applies(e.Q) {
			t.Errorf("%s: Auto chose %s but Applies rejects the query", e.Name, a.Name())
		}
		if want := classRoute[e.Class]; a.Name() != want && !specialized[a.Name()] {
			t.Errorf("%s (class %s): routed to %s, want %s or a shape specialization",
				e.Name, e.Class, a.Name(), want)
		}
	}
}

// TestAutoShapeSpecialization pins the shape-restricted routes: chains to
// line3, products to hypercube, triangles to the §7 algorithm.
func TestAutoShapeSpecialization(t *testing.T) {
	cases := []struct {
		q    *hypergraph.Hypergraph
		want string
	}{
		{hypergraph.Line3(), "line3"},
		{hypergraph.LineK(4), "acyclic"},
		{hypergraph.CartesianK(3), "hypercube"},
		{hypergraph.Triangle(), "triangle"},
		{hypergraph.Q1TallFlat(), "binhc"},
		{hypergraph.Q2Hierarchical(), "rhier"},
		{hypergraph.Q2RHier(), "rhier"},
	}
	for _, c := range cases {
		a, err := engine.Auto(c.q)
		if err != nil {
			t.Fatalf("Auto(%v): %v", c.q, err)
		}
		if a.Name() != c.want {
			t.Errorf("Auto(%v) = %s, want %s", c.q, a.Name(), c.want)
		}
	}
}

// directRun reproduces what engine.Run does for the named algorithm with a
// bare core call: same cluster size, same seed, same emitter. The parity
// test asserts the engine adds nothing and loses nothing.
func directRun(t *testing.T, name string, in *core.Instance, p int, seed uint64) (int64, int, int) {
	t.Helper()
	c := mpc.NewCluster(p)
	em := mpc.NewCountEmitter(in.Ring)
	switch name {
	case "yannakakis":
		core.Yannakakis(c, in, nil, seed, em)
	case "acyclic":
		core.AcyclicJoin(c, in, seed, em)
	case "line3":
		core.Line3(c, in, seed, em)
	case "line3wc":
		core.Line3WorstCase(c, in, seed, em)
	case "rhier":
		core.RHier(c, in, seed, em)
	case "binhc":
		core.BinHC(c, in, seed, false, em)
	case "hypercube":
		core.HyperCubeProduct(c, in, seed, em)
	case "triangle":
		core.Triangle(c, in, seed, em)
	default:
		t.Fatalf("directRun: no core call for %q", name)
	}
	return em.N, c.MaxLoad(), c.Rounds()
}

// TestEngineParityWithCore runs every catalog query through engine.Auto and
// through the equivalent direct core call and requires identical
// (OUT, load, rounds) — the engine is measurement-transparent.
func TestEngineParityWithCore(t *testing.T) {
	const p, seed = 8, uint64(2019)
	for i, e := range hypergraph.Catalog() {
		rng := mpc.NewChildRng(seed, i)
		in := gen.ForQuery(rng, e.Q, 64, 6)
		a, err := engine.Auto(e.Q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		res, err := engine.Run(a, engine.Job{In: in, P: p, Seed: seed, CheckOracle: true})
		if err != nil {
			t.Errorf("%s via %s: %v", e.Name, a.Name(), err)
			continue
		}
		if !res.Verified {
			t.Errorf("%s via %s: oracle check did not run", e.Name, a.Name())
		}
		out, load, rounds := directRun(t, a.Name(), in, p, seed)
		if res.OUT != out || res.Load != load || res.Rounds != rounds {
			t.Errorf("%s via %s: engine (OUT=%d L=%d R=%d) != core (OUT=%d L=%d R=%d)",
				e.Name, a.Name(), res.OUT, res.Load, res.Rounds, out, load, rounds)
		}
	}
}

// TestEveryRegisteredAlgorithmOnItsHome runs each registered full-join
// algorithm on an instance it applies to, oracle-verified.
func TestEveryRegisteredAlgorithmOnItsHome(t *testing.T) {
	const p, seed = 8, uint64(7)
	rng := mpc.NewRng(seed)
	homes := map[string]*core.Instance{
		"yannakakis": gen.ForQuery(rng, hypergraph.LineK(4), 64, 6),
		"acyclic":    gen.ForQuery(rng, hypergraph.Fig5Example(), 32, 4),
		"line3":      gen.Line3Random(rng, 256, 512),
		"line3wc":    gen.Line3Random(rng, 256, 512),
		"rhier":      gen.RHierSkewed(rng, 2, 8, 64),
		"binhc":      gen.TallFlatSkewed(8, 64),
		"hypercube":  gen.CartesianSizes(8, 4, 2),
		"triangle":   gen.TriangleRandom(rng, 128, 256),
		"naive":      gen.ForQuery(rng, hypergraph.Line2(), 64, 6),
	}
	for _, a := range engine.All() {
		in, ok := homes[a.Name()]
		if !ok {
			continue // scalar/aggregate algorithms are covered below
		}
		res, err := engine.Run(a, engine.Job{In: in, P: p, Seed: seed, CheckOracle: true})
		if err != nil {
			t.Errorf("%s: %v", a.Name(), err)
			continue
		}
		if !res.Verified {
			t.Errorf("%s: not verified", a.Name())
		}
	}
}

// TestScalarAlgorithms covers count and aggregate, whose emissions are not
// the full join.
func TestScalarAlgorithms(t *testing.T) {
	rng := mpc.NewRng(3)
	in := gen.Line3Random(rng, 256, 1024)
	want := core.NaiveCount(in)

	res, err := engine.RunNamed("count", engine.Job{In: in, P: 8, Seed: 3})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if res.Annot != want {
		t.Errorf("count: Annot = %d, want %d", res.Annot, want)
	}

	y := hypergraph.NewAttrSet(2, 3)
	agg, err := engine.RunNamed("aggregate", engine.Job{In: in, P: 8, Seed: 3, GroupBy: y})
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if agg.Dist == nil || agg.Dist.Size() == 0 {
		t.Fatal("aggregate: no grouped result")
	}
	var total int64
	for _, it := range agg.Dist.All() {
		total += it.A
	}
	if total != want {
		t.Errorf("aggregate: group counts sum to %d, want %d", total, want)
	}
}

// TestRunVerifyFailure asserts ErrVerify wrapping and that the measurement
// survives the failed check.
func TestRunVerifyFailure(t *testing.T) {
	rng := mpc.NewRng(5)
	in := gen.ForQuery(rng, hypergraph.Line2(), 32, 4)
	res, err := engine.RunNamed("yannakakis", engine.Job{
		In: in, P: 4, Seed: 5, Want: -1, CheckWant: true,
	})
	if !errors.Is(err, engine.ErrVerify) {
		t.Fatalf("err = %v, want ErrVerify", err)
	}
	if res.Load <= 0 {
		t.Errorf("failed verification lost the measurement: %+v", res)
	}
	if res.Verified {
		t.Error("Verified must be false on mismatch")
	}
}

// TestRunRejectsInapplicable asserts Run refuses algorithm/query pairs the
// guarantee does not cover instead of panicking deep inside core.
func TestRunRejectsInapplicable(t *testing.T) {
	rng := mpc.NewRng(9)
	in := gen.TriangleRandom(rng, 64, 128)
	if _, err := engine.RunNamed("yannakakis", engine.Job{In: in, P: 4}); err == nil {
		t.Error("yannakakis on a cyclic query must be rejected")
	}
	if _, err := engine.RunNamed("rhier", engine.Job{In: gen.Line3Random(rng, 64, 128), P: 4}); err == nil {
		t.Error("rhier on a non-r-hierarchical query must be rejected")
	}
}

// TestRejectsInvalidJobs asserts that jobs the engine cannot run come
// back as errors from both entry points instead of panicking in the
// cluster constructor or the dispatcher.
func TestRejectsInvalidJobs(t *testing.T) {
	in := gen.ForQuery(mpc.NewRng(3), hypergraph.Line2(), 16, 4)
	cases := []struct {
		name string
		job  engine.Job
	}{
		{"negative P", engine.Job{In: in, P: -1}},
		{"very negative P", engine.Job{In: in, P: -1 << 40}},
		{"no instance", engine.Job{P: 4}},
	}
	entries := []struct {
		name string
		run  func(engine.Job) (engine.Result, error)
	}{
		{"RunNamed", func(j engine.Job) (engine.Result, error) { return engine.RunNamed("yannakakis", j) }},
		{"AutoRun", engine.AutoRun},
	}
	for _, tc := range cases {
		for _, e := range entries {
			t.Run(tc.name+"/"+e.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if _, err := e.run(tc.job); err == nil {
					t.Fatal("no error")
				}
			})
		}
	}
}

// TestRegistry covers lookup misses and the sorted name list.
func TestRegistry(t *testing.T) {
	if _, ok := engine.Lookup("no-such-algorithm"); ok {
		t.Error("Lookup invented an algorithm")
	}
	names := engine.Names()
	for _, want := range []string{"acyclic", "binhc", "count", "hypercube", "line3",
		"line3wc", "naive", "rhier", "triangle", "yannakakis", "aggregate"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	if _, err := engine.RunNamed("no-such-algorithm", engine.Job{}); err == nil {
		t.Error("RunNamed on unknown name must fail")
	}
}
