// Command joinbench is the repository's end-to-end join benchmark. It
// runs one workload's fixed query list through the public engine API in
// closed-loop passes (one client: each query starts when the previous one
// has returned), at cluster size p = 64 and data-plane width nproc, checks
// every result against the sequential oracle, and prints every metric by
// name, unit and sample count. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root through the wrapper, which
// keeps every build artifact under .bench_build/:
//
//	bash joinbench/run.sh --workload out-heavy --seed 1 --seconds 30 --trace 0
//
// # Workloads
//
// The seed is an argument; the engine only receives the generated
// instances.
//
//   - out-heavy: four draws of gen.Line3Random (IN 2⁹, OUT 16·IN) ×
//     {yannakakis, line3, acyclic} and gen.LineKUniform (k 4, 2⁷ tuples,
//     domain 32) × {yannakakis, acyclic}. OUT ≫ IN: local hash joins,
//     projection and column growth dominate. Algorithms are named, so no
//     query dispatches.
//   - reduce-skew: gen.WithDangling(gen.RHierSkewed(4 hubs of degree 128,
//     tail 2¹²), 2¹² dangling R2 tuples) × {rhier, count, aggregate grouped
//     by the first attribute}. OUT ≪ IN: semi-join reduction, SumByKey and
//     the exchange dominate.
//   - catalog-small: the 11 hypergraph.Catalog() queries, each on four
//     gen.ForQuery instances (32 tuples per relation, domain 4), through
//     engine.AutoRun with no OUT hint, materialized. Tiny data, many
//     rounds: fixed costs per round, exchange and dispatch dominate.
//
// # End-to-end metrics (--trace 0)
//
// pass_ms_p50 and pass_ms_p90 (wall time of one pass, at least 100 passes;
// the p90 is the median of the p90s of consecutive batches of at least 30
// passes, so a few seconds of host steal do not move it),
// cpu_ms_per_query (getrusage user+sys), alloc_mb_per_query (heap bytes
// allocated), load_L_sum and rounds_sum (Σ over one pass; exact for a
// seed), ok_frac (queries that returned, matched the oracle and reproduced
// their load and rounds, over queries attempted) and setup_s (generation,
// oracle and one warm-up pass; median of five set-ups).
//
// # Per-layer metrics (--trace 1)
//
// A traced run, separate from the timed passes, records a span around
// every public call the benchmark makes, reads runtime/metrics counters at
// span boundaries, and writes the spans as JSON lines to
// .bench_build/joinbench/spans-<workload>-seed<n>.jsonl when it ends. What
// each figure should move:
//
//   - engine.dispatch_us_p50, hypergraph.classify_us_p50, engine.regret,
//     engine.pred_error_gmean: pass_ms_p50 and load_L_sum on catalog-small.
//   - core.run_ms_p50, core.run_alloc_mb (and the printed per-algorithm
//     core.<algo>.ms_p50 and core.<algo>.alloc_mb lines): pass_ms_p50 and
//     alloc_mb_per_query on the workload that runs the algorithm.
//   - mpc.load_instance_ms, mpc.shuffle_ms, primitives.full_reduce_ms,
//     primitives.semijoin_ms, primitives.count_by_key_ms: reduce-skew.
//   - core.binary_join_ms, core.binary_join_allocs_per_out,
//     core.project_local_ms, core.emit_ms: out-heavy.
//   - mpc.materialize_ms: catalog-small.
//   - mpc.comm_tuples_sum, mpc.exchanges_sum, mpc.exchange_tuples_sum:
//     cpu_ms_per_query on reduce-skew and catalog-small.
//   - runtime.parallel_speedup: tells wins from parallelism (lower
//     pass_ms_p50 at unchanged cpu_ms_per_query) from wins from less work.
//   - gc.cpu_frac, gc.cycles_per_query, gc.allocs_per_query,
//     gc.heap_goal_mb_max: cpu_ms_per_query and alloc_mb_per_query on
//     out-heavy.
//   - oracle.naive_count_s, gen.build_s: setup_s.
//   - host.steal_frac, trace.overhead_frac: diagnostics for wall-only
//     differences.
//
// Every traced run prints every per-layer metric: the layer probes run on
// each workload's own instances, the dispatch figures on what AutoCost
// would pick for them.
package main
