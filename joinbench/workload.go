package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// clusterP is the cluster size of every query the benchmark runs.
const clusterP = 64

// check names what a query's result is verified against.
type check int

const (
	checkOut      check = iota // Result.OUT equals the oracle count
	checkAnnot                 // Result.Annot equals the oracle count
	checkMultiset              // Result.Table equals core.Naive as a multiset
)

// instance is one generated input with its oracle answers, computed once
// at set-up.
type instance struct {
	label string
	in    *core.Instance
	// want is |Q(R)| from the sequential oracle.
	want int64
	// bag is core.Naive's (tuple, annotation) multiset; only kept for
	// instances whose queries materialize.
	bag map[string]int
}

// query is one entry of a workload's fixed query list.
type query struct {
	label string
	inst  int    // index into setup.insts
	algo  string // registry name; "" dispatches through engine.AutoRun
	seed  uint64
	by    hypergraph.AttrSet
	mat   bool
	check check
}

// spec is what a workload's generator returns: instances and the query
// list over them.
type spec struct {
	insts   []instance
	queries []query
}

// workload is a named generator of one spec per seed.
type workload struct {
	name  string
	build func(seed uint64) spec
}

var workloads = []workload{
	{name: "out-heavy", build: buildOutHeavy},
	{name: "reduce-skew", build: buildReduceSkew},
	{name: "catalog-small", build: buildCatalogSmall},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Out-heavy sizes: four draws of a random line-3 instance with OUT = 16·IN
// and a uniform line-4 chain; both joins output far more tuples than they
// read. Four small draws rather than one large one: a pass's load sum then
// averages over draws (coefficient of variation over 24 seeds 2%, against
// 8% for one draw of four times the size at the same pass time).
const (
	outHeavyLine3IN = 1 << 9
	outHeavyLine3X  = 16
	outHeavyLine4N  = 1 << 7
	outHeavyLine4D  = 32
	outHeavyDraws   = 4
)

// buildOutHeavy names its algorithms explicitly: no query goes through
// dispatch.
func buildOutHeavy(seed uint64) spec {
	var s spec
	for d := 0; d < outHeavyDraws; d++ {
		l3 := gen.Line3Random(mpc.NewChildRng(seed, 2*d), outHeavyLine3IN, outHeavyLine3X*outHeavyLine3IN)
		l4 := gen.LineKUniform(mpc.NewChildRng(seed, 2*d+1), 4, outHeavyLine4N, outHeavyLine4D)
		for _, in := range []struct {
			label string
			in    *core.Instance
			algos []string
		}{
			{fmt.Sprintf("line3.%d", d), l3, []string{"yannakakis", "line3", "acyclic"}},
			{fmt.Sprintf("line4.%d", d), l4, []string{"yannakakis", "acyclic"}},
		} {
			for _, a := range in.algos {
				s.queries = append(s.queries, query{label: in.label + "/" + a, inst: len(s.insts), algo: a, check: checkOut})
			}
			s.insts = append(s.insts, instance{label: in.label, in: in.in})
		}
	}
	return s.seeded(seed)
}

// Reduce-skew sizes: 4 hub A-values of degree 128 plus a 2¹² tail, and 2¹²
// dangling R2 tuples that the semi-join reduction has to remove.
const (
	reduceHubs     = 4
	reduceHubDeg   = 128
	reduceTail     = 1 << 12
	reduceDangling = 1 << 12
)

// buildReduceSkew has OUT ≪ IN. RHierSkewed is deterministic, so the seed
// shuffles tuple order (and with it the round-robin placement) and drives
// every algorithm's hashing.
func buildReduceSkew(seed uint64) spec {
	base := gen.RHierSkewed(mpc.NewChildRng(seed, 0), reduceHubs, reduceHubDeg, reduceTail)
	in := gen.WithDangling(base, 1, reduceDangling)
	rng := mpc.NewChildRng(seed, 1)
	for _, r := range in.Rels {
		perm := rng.Perm(r.Size())
		ts := make([]relation.Tuple, len(perm))
		for i, j := range perm {
			ts[i] = r.Tuples[j]
		}
		r.Tuples = ts
	}
	first := hypergraph.NewAttrSet(in.Q.Edges[0][0])
	s := spec{insts: []instance{{label: "rhier-skew", in: in}}}
	s.queries = []query{
		{label: "rhier", algo: "rhier", check: checkOut},
		{label: "count", algo: "count", check: checkAnnot},
		{label: "aggregate", algo: "aggregate", by: first, check: checkAnnot},
	}
	return s.seeded(seed)
}

// Catalog-small sizes: 32 tuples per relation over a domain of 4, and
// four instance draws per catalog query, so a pass's allocation and round
// count average over draws instead of following one draw's output size.
const (
	catalogN     = 32
	catalogDom   = 4
	catalogDraws = 4
)

// buildCatalogSmall runs every catalog query through engine.AutoRun with
// no OUT hint, materializing the result.
func buildCatalogSmall(seed uint64) spec {
	var s spec
	cat := hypergraph.Catalog()
	for d := 0; d < catalogDraws; d++ {
		for i, e := range cat {
			in := gen.ForQuery(mpc.NewChildRng(seed, d*len(cat)+i), e.Q, catalogN, catalogDom)
			label := fmt.Sprintf("q%02d.%d", i, d)
			s.queries = append(s.queries, query{label: label + "/auto", inst: len(s.insts), mat: true, check: checkMultiset})
			s.insts = append(s.insts, instance{label: label, in: in})
		}
	}
	return s.seeded(seed)
}

// seeded derives every query's algorithm seed from the workload seed.
func (s spec) seeded(seed uint64) spec {
	for i := range s.queries {
		s.queries[i].seed = mpc.ChildSeed(seed, 1000+i)
	}
	return s
}

// setup is a workload ready to run: generated instances with their oracle
// answers, and the warm-up pass whose per-query load and rounds every
// later pass must reproduce.
type setup struct {
	spec
	seed           uint64
	ref            []paper
	genS, oracleS  float64
	totalS         float64
	warmupFailures []string
}

// newSetup generates the instances, runs the oracle once per instance and
// warms up with one checked pass.
func newSetup(w workload, seed uint64) *setup {
	t0 := time.Now()
	s := &setup{spec: w.build(seed), seed: seed}
	t1 := time.Now()
	materialized := map[int]bool{}
	for _, q := range s.queries {
		if q.mat {
			materialized[q.inst] = true
		}
	}
	for i := range s.insts {
		inst := &s.insts[i]
		if materialized[i] {
			rel := core.Naive(inst.in)
			inst.want = int64(rel.Size())
			inst.bag = bagOf(rel)
		} else {
			inst.want = core.NaiveCount(inst.in)
		}
	}
	t2 := time.Now()
	warm := runPass(s, nil)
	t3 := time.Now()
	s.warmupFailures = warm.failures
	if len(warm.failures) == 0 {
		s.ref = warm.queries
	}
	s.genS = t1.Sub(t0).Seconds()
	s.oracleS = t2.Sub(t1).Seconds()
	s.totalS = t3.Sub(t0).Seconds()
	return s
}

// job is the engine job for q.
func (s *setup) job(q *query) engine.Job {
	return engine.Job{In: s.insts[q.inst].in, P: clusterP, Seed: q.seed, GroupBy: q.by, Materialize: q.mat}
}

// run executes q through the public engine API. A panic is recovered and
// returned as an error, so it counts as a failed query.
func (s *setup) run(q *query) (res engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	job := s.job(q)
	if q.algo == "" {
		return engine.AutoRun(job)
	}
	return engine.RunNamed(q.algo, job)
}

// verify compares res against q's oracle answer.
func (s *setup) verify(q *query, res engine.Result) error {
	inst := &s.insts[q.inst]
	switch q.check {
	case checkOut:
		if res.OUT != inst.want {
			return fmt.Errorf("OUT %d, oracle %d", res.OUT, inst.want)
		}
	case checkAnnot:
		if res.Annot != inst.want {
			return fmt.Errorf("annotation sum %d, oracle count %d", res.Annot, inst.want)
		}
	case checkMultiset:
		if res.Table == nil {
			return fmt.Errorf("no materialized table")
		}
		if int64(res.Table.Size()) != inst.want {
			return fmt.Errorf("table has %d rows, oracle %d", res.Table.Size(), inst.want)
		}
		if !sameBag(bagOf(res.Table), inst.bag) {
			return fmt.Errorf("materialized (tuple, annotation) multiset differs from core.Naive")
		}
	}
	return nil
}

// bagOf returns r's (tuple, annotation) multiset.
func bagOf(r *relation.Relation) map[string]int {
	bag := make(map[string]int, r.Size())
	for i, t := range r.Tuples {
		bag[relation.EncodeTuple(t)+"|"+strconv.FormatInt(r.Annot(i), 10)]++
	}
	return bag
}

func sameBag(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}
