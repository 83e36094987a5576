package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// Repetitions of the traced run's probes.
const (
	// minPhasePasses is the least number of passes on each side of the
	// traced/untraced and width-1/width-nproc comparisons.
	minPhasePasses = 5
	// dispatchReps times each dispatch call per instance.
	dispatchReps = 51
	// probeReps times each layer probe per instance; the median is kept.
	probeReps = 7
)

// tracedRun measures the per-layer metrics. It runs apart from the timed
// passes, so the end-to-end figures are taken with tracing off:
//
//   - traced passes alternating with untraced ones (trace overhead, GC,
//     per-algorithm spans, the Result counts);
//   - passes at data-plane width 1 alternating with width nproc
//     (parallel speedup);
//   - dispatch probes and every runnable dispatch candidate (regret);
//   - layer probes on a fresh cluster over each instance.
//
// Every pass is checked like a timed one, including its load and rounds.
func tracedRun(s *setup, st setupStats, dur time.Duration, nproc int, tr *tracer, rep *report, env map[string]any) {
	ticks0, ok0 := readCPUTicks()

	// Traced vs untraced, whole-pass wall time including the tracer.
	var traced, plain []float64
	var sums passSums
	start := time.Now()
	for time.Since(start) < dur*2/5 || len(traced) < minPhasePasses {
		t0 := time.Now()
		pr := runPass(s, nil)
		plain = append(plain, float64(time.Since(t0).Nanoseconds())/1e6)
		rep.tally(len(s.queries), pr.failures)

		t0 = time.Now()
		pr = runPass(s, tr)
		traced = append(traced, float64(time.Since(t0).Nanoseconds())/1e6)
		rep.tally(len(s.queries), pr.failures)
		sums = pr.sums
	}
	tracedSpans := len(tr.spans)

	// Width 1 vs width nproc.
	var w1, wn []float64
	start = time.Now()
	for time.Since(start) < dur*2/5 || len(w1) < minPhasePasses {
		runtime.SetParallelism(1)
		pr := runPass(s, nil)
		w1 = append(w1, float64(pr.wallNs)/1e6)
		rep.tally(len(s.queries), pr.failures)

		runtime.SetParallelism(nproc)
		pr = runPass(s, nil)
		wn = append(wn, float64(pr.wallNs)/1e6)
		rep.tally(len(s.queries), pr.failures)
	}
	ticks1, ok1 := readCPUTicks()
	steal := stealFrac(ticks0, ticks1, ok0 && ok1)
	env["host.steal_frac"] = steal

	dispatch(s, tr, rep)
	regret(s, tr, rep)
	probes := layerProbes(s, tr, rep)

	passSpans := tr.spans[:tracedSpans]
	gcMetrics(s, passSpans, len(traced), rep)
	engineMetrics(s, passSpans, len(traced), rep)
	for _, p := range probes {
		rep.add(p.name, p.unit, p.value, p.n, p.note)
	}
	rep.add("mpc.comm_tuples_sum", "tuples", float64(sums.comm), len(traced), "Σ Result.TotalComm over one pass")
	rep.add("mpc.exchanges_sum", "count", float64(sums.exchanges), len(traced), "Σ Result.Exchange.Exchanges over one pass")
	rep.add("mpc.exchange_tuples_sum", "tuples", float64(sums.exTuple), len(traced), "Σ Result.Exchange.Tuples over one pass")
	rep.add("runtime.parallel_speedup", "ratio", median(w1)/median(wn), len(w1)+len(wn),
		fmt.Sprintf("pass p50 %.3f ms at width 1 vs %.3f ms at width %d", median(w1), median(wn), nproc))
	rep.add("oracle.naive_count_s", "s", st.oracleS, setupReps, "median over set-ups")
	rep.add("gen.build_s", "s", st.genS, setupReps, "median over set-ups")
	rep.add("host.steal_frac", "frac", steal, 1, "from /proc/stat during the passes")
	rep.add("trace.overhead_frac", "frac", median(traced)/median(plain)-1, len(traced)+len(plain),
		fmt.Sprintf("whole-pass p50 %.3f ms traced vs %.3f ms untraced", median(traced), median(plain)))
	env["load_L_sum"] = sums.load
	env["rounds_sum"] = sums.rounds
	env["passes"] = len(traced) + len(plain) + len(w1) + len(wn)
}

// gcMetrics reads the Go runtime's counters over the traced passes.
func gcMetrics(s *setup, spans []span, passes int, rep *report) {
	var gcCPU, busy float64
	var cycles, objs, goal uint64
	for i := range spans {
		sp := &spans[i]
		goal = max(goal, sp.HeapGoalMax)
		if sp.Name != "pass" {
			continue
		}
		gcCPU += sp.GCCPUSeconds
		busy += sp.BusyCPUSeconds
		cycles += sp.GCCycles
		objs += sp.AllocObjects
	}
	q := float64(passes * len(s.queries))
	frac := 0.0
	if busy > 0 {
		frac = gcCPU / busy
	}
	rep.add("gc.cpu_frac", "frac", frac, passes, "GC share of busy CPU, runtime/metrics estimate")
	rep.add("gc.cycles_per_query", "count", float64(cycles)/q, int(q), "")
	rep.add("gc.allocs_per_query", "count", float64(objs)/q, int(q), "heap objects allocated")
	rep.add("gc.heap_goal_mb_max", "MiB", float64(goal)/(1<<20), len(spans), "largest heap goal at a span boundary")
}

// engineMetrics reads the engine-call spans of the traced passes: the
// per-query time and allocation, and one pair of lines per algorithm.
func engineMetrics(s *setup, spans []span, passes int, rep *report) {
	perQuery := make([][]float64, len(s.queries))
	byAlgo := map[string][]float64{}
	allocByAlgo := map[string]uint64{}
	var allocB uint64
	calls := 0
	qi := 0
	for i := range spans {
		sp := &spans[i]
		if sp.Layer != "engine" {
			continue
		}
		ms := float64(sp.durNs()) / 1e6
		perQuery[qi] = append(perQuery[qi], ms)
		qi = (qi + 1) % len(s.queries)
		byAlgo[sp.Algorithm] = append(byAlgo[sp.Algorithm], ms)
		allocByAlgo[sp.Algorithm] += sp.AllocBytes
		allocB += sp.AllocBytes
		calls++
	}
	sum := 0.0
	for _, xs := range perQuery {
		sum += median(xs)
	}
	rep.add("core.run_ms_p50", "ms", sum, passes, "Σ over the query list of each query's median traced engine call")
	rep.add("core.run_alloc_mb", "MiB", float64(allocB)/(1<<20)/float64(calls), calls, "per traced engine call")
	algos := make([]string, 0, len(byAlgo))
	for a := range byAlgo {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	for _, a := range algos {
		xs := byAlgo[a]
		rep.extra("core."+a+".ms_p50", "ms", median(xs), len(xs), "per call")
		rep.extra("core."+a+".alloc_mb", "MiB", float64(allocByAlgo[a])/(1<<20)/float64(len(xs)), len(xs), "per call")
	}
}

// dispatch times classification and cost-based dispatch on every
// instance.
func dispatch(s *setup, tr *tracer, rep *report) {
	var cls, cost []float64
	for k := range s.insts {
		inst := &s.insts[k]
		parent := tr.begin("dispatch", "bench", inst.label, -1)
		for r := 0; r < dispatchReps; r++ {
			cls = append(cls, float64(tr.probe("hypergraph.Classify", "hypergraph", inst.label, parent, func() {
				_ = inst.in.Q.Classify()
			}))/1e3)
			cost = append(cost, float64(tr.probe("engine.AutoCost", "engine", inst.label, parent, func() {
				if _, _, err := engine.AutoCost(inst.in, clusterP, -1); err != nil {
					rep.tally(0, []string{fmt.Sprintf("%s: AutoCost: %v", inst.label, err)})
				}
			}))/1e3)
		}
		tr.end(parent, engine.Result{})
	}
	rep.add("engine.dispatch_us_p50", "us", median(cost), len(cost), "engine.AutoCost, no OUT hint")
	rep.add("hypergraph.classify_us_p50", "us", median(cls), len(cls), "")
}

// regret runs every runnable candidate of each instance's dispatch
// scorecard, naive included where the scorecard lists it, and compares
// the measured load of the pick with the best candidate.
func regret(s *setup, tr *tracer, rep *report) {
	var sumPick, sumMin float64
	var ratios []float64
	for k := range s.insts {
		inst := &s.insts[k]
		pick, cands, err := engine.AutoCost(inst.in, clusterP, -1)
		if err != nil {
			rep.tally(1, []string{fmt.Sprintf("%s: AutoCost: %v", inst.label, err)})
			continue
		}
		minL, pickL := math.Inf(1), math.NaN()
		for _, c := range cands {
			if c.Rejected != "" {
				continue
			}
			job := engine.Job{In: inst.in, P: clusterP, Seed: mpc.ChildSeed(s.seed, 2000+k)}
			id := tr.begin("engine.RunNamed", "engine", inst.label+"/"+c.Name, -1)
			res, err := runNamed(c.Name, job)
			tr.end(id, res)
			rep.tally(1, nil)
			if err == nil && res.OUT != inst.want {
				err = fmt.Errorf("OUT %d, oracle %d", res.OUT, inst.want)
			}
			if err != nil {
				rep.tally(0, []string{fmt.Sprintf("%s/%s: %v", inst.label, c.Name, err)})
				continue
			}
			minL = min(minL, float64(res.Load))
			if c.Name == pick.Name() {
				pickL = float64(res.Load)
				if c.Predicted > 0 {
					ratios = append(ratios, pickL/c.Predicted)
				}
			}
		}
		sumPick += pickL
		sumMin += minL
	}
	rep.add("engine.regret", "ratio", sumPick/sumMin, len(s.insts), "Σ L(pick) ÷ Σ min L over runnable candidates")
	// The ratio's better direction depends on its side of 1, so the
	// declared metric is the symmetric error factor max(r, 1/r).
	errs := make([]float64, len(ratios))
	for i, r := range ratios {
		errs[i] = max(r, 1/r)
	}
	rep.add("engine.pred_error_gmean", "ratio", geomean(errs), len(errs), "max(r, 1/r) of r = measured L ÷ predicted L of the pick")
	rep.extra("engine.pred_ratio_gmean", "ratio", geomean(ratios), len(ratios), "measured L ÷ predicted L of the pick")
}

// runNamed is engine.RunNamed with a recovered panic returned as an error.
func runNamed(name string, job engine.Job) (res engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return engine.RunNamed(name, job)
}

// probeSet accumulates one layer probe: per instance, the median over
// probeReps calls; the metric is the sum over instances.
type probeSet struct {
	name, unit, note string
	value            float64
	n                int
	cur              []float64
}

func (p *probeSet) sample(ns int64) { p.cur = append(p.cur, float64(ns)/1e6) }

// flush closes the current instance.
func (p *probeSet) flush() {
	if len(p.cur) > 0 {
		p.value += median(p.cur)
		p.n += len(p.cur)
		p.cur = p.cur[:0]
	}
}

// layerProbes times public functions of the mpc, primitives and core
// layers on a fresh cluster per repetition, over each instance: the
// initial distribution, a shuffle, the full reducer, and, on the first
// pair of relations that share attributes, a semi-join, a degree count, a
// binary join with its projection and emission (counted and
// materialized). The join's size is checked against the oracle.
func layerProbes(s *setup, tr *tracer, rep *report) []*probeSet {
	load := &probeSet{name: "mpc.load_instance_ms", unit: "ms", note: "core.LoadInstance"}
	shuffle := &probeSet{name: "mpc.shuffle_ms", unit: "ms", note: "Dist.ShuffleByAttrs on the join key"}
	reduce := &probeSet{name: "primitives.full_reduce_ms", unit: "ms", note: "core.FullReduce, acyclic instances"}
	semi := &probeSet{name: "primitives.semijoin_ms", unit: "ms", note: "primitives.SemiJoin"}
	degree := &probeSet{name: "primitives.count_by_key_ms", unit: "ms", note: "primitives.CountByKey"}
	join := &probeSet{name: "core.binary_join_ms", unit: "ms", note: "core.BinaryJoin"}
	project := &probeSet{name: "core.project_local_ms", unit: "ms", note: "core.ProjectLocal"}
	emit := &probeSet{name: "core.emit_ms", unit: "ms", note: "core.EmitDist into a CountEmitter"}
	mat := &probeSet{name: "mpc.materialize_ms", unit: "ms", note: "core.EmitDist into a ShardedEmitter"}
	timed := []*probeSet{load, shuffle, reduce, semi, degree, join, project, emit, mat}
	var joinObjs, joinOut uint64

	for k := range s.insts {
		inst := &s.insts[k]
		in := inst.in
		a, b, key := joinPair(in)
		var want int64
		if a >= 0 {
			want = core.NaiveCount(in.SubInstance([]int{a, b}))
		}
		acyclic := in.Q.IsAcyclic()
		parent := tr.begin("probes", "bench", inst.label, -1)
		for r := 0; r < probeReps; r++ {
			c := mpc.NewCluster(clusterP)
			salt := mpc.ChildSeed(s.seed, 3000+k*probeReps+r)
			var dists []*mpc.Dist
			load.sample(tr.probe("core.LoadInstance", "mpc", inst.label, parent, func() { dists = core.LoadInstance(c, in) }))
			if acyclic {
				reduce.sample(tr.probe("core.FullReduce", "primitives", inst.label, parent, func() { core.FullReduce(in, dists) }))
			}
			if a < 0 {
				continue
			}
			da, db := dists[a], dists[b]
			shuffle.sample(tr.probe("mpc.Dist.ShuffleByAttrs", "mpc", inst.label, parent, func() { da.ShuffleByAttrs(key, salt) }))
			semi.sample(tr.probe("primitives.SemiJoin", "primitives", inst.label, parent, func() { primitives.SemiJoin(da, key, db, key) }))
			degree.sample(tr.probe("primitives.CountByKey", "primitives", inst.label, parent, func() { primitives.CountByKey(da, key, salt) }))

			var joined *mpc.Dist
			id := tr.begin("core.BinaryJoin", "core", inst.label, parent)
			o0 := allocObjects()
			t0 := time.Now()
			joined = core.BinaryJoin(da, db, in.Ring, salt, nil)
			join.sample(time.Since(t0).Nanoseconds())
			joinObjs += allocObjects() - o0
			tr.end(id, engine.Result{})
			joinOut += uint64(joined.Size())

			proj := projection(da.Schema, db.Schema)
			project.sample(tr.probe("core.ProjectLocal", "core", inst.label, parent, func() { core.ProjectLocal(joined, proj) }))
			counter := mpc.NewCountEmitter(in.Ring)
			emit.sample(tr.probe("core.EmitDist", "core", inst.label, parent, func() { core.EmitDist(joined, joined.Schema, counter) }))
			var table *relation.Relation
			mat.sample(tr.probe("core.EmitDist", "mpc", inst.label+"/materialize", parent, func() {
				em := mpc.NewShardedEmitter(joined.Schema, c.P)
				core.EmitDist(joined, joined.Schema, em)
				table = em.Rel()
			}))
			rep.tally(1, nil)
			if n := int64(joined.Size()); n != want || counter.N != want || int64(table.Size()) != want {
				rep.tally(0, []string{fmt.Sprintf("%s: binary join of relations %d and %d: size %d, emitted %d, materialized %d, oracle %d",
					inst.label, a, b, n, counter.N, table.Size(), want)})
			}
		}
		tr.end(parent, engine.Result{})
		for _, p := range timed {
			p.flush()
		}
	}
	perOut := &probeSet{name: "core.binary_join_allocs_per_out", unit: "count", note: "heap objects per output tuple"}
	if joinOut > 0 {
		perOut.value, perOut.n = float64(joinObjs)/float64(joinOut), int(joinOut)
	}
	return []*probeSet{load, shuffle, reduce, semi, degree, join, perOut, project, emit, mat}
}

// joinPair returns the first pair of relations a < b that share
// attributes, with the shared attributes (a = -1 when there is none).
func joinPair(in *core.Instance) (a, b int, key []relation.Attr) {
	for i := range in.Rels {
		for j := i + 1; j < len(in.Rels); j++ {
			if shared := in.Rels[i].Schema.Intersect(in.Rels[j].Schema); len(shared) > 0 {
				return i, j, shared
			}
		}
	}
	return -1, -1, nil
}

// projection drops the join key from the joined schema, keeping one
// attribute when nothing else is left.
func projection(a, b relation.Schema) relation.Schema {
	u := a.Union(b)
	if rest := u.Minus(a.Intersect(b)); len(rest) > 0 {
		return rest
	}
	return u[:1]
}
