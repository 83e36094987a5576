package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"time"

	"repro/internal/runtime"
)

// Run-length policy of the timed passes.
const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// minPasses keeps at least ten passes beyond the run's 90th
	// percentile.
	minPasses = 100
	// p90Batch is the length, in consecutive passes, of the batches whose
	// 90th percentiles pass_ms_p90 takes the median of; each batch's p90
	// has at least three passes beyond it.
	p90Batch = 30
	// overrun caps a run at overrun × --seconds even when minPasses has
	// not been reached.
	overrun = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
	note       string
	// printOnly keeps the metric out of the JSON result: it is printed
	// for the reader but is not one of the benchmark's declared metrics.
	printOnly bool
}

// report collects a run's metrics and its correctness tally.
type report struct {
	metrics   []metric
	attempted int
	failures  []string
}

func (r *report) add(name, unit string, value float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n, note: note})
}

// extra adds a metric that is printed but left out of the JSON result.
func (r *report) extra(name, unit string, value float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n, note: note, printOnly: true})
}

// tally counts n attempted queries and their failures.
func (r *report) tally(n int, failures []string) {
	r.attempted += n
	r.failures = append(r.failures, failures...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("joinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: out-heavy, reduce-skew or catalog-small")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured passes in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "joinbench"), "directory the span file is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "joinbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "joinbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))

	nproc := stdruntime.NumCPU()
	runtime.SetParallelism(nproc)
	rep := &report{}
	s, st := setUp(w, *seed, rep)

	env := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace, "p": clusterP,
		"nproc": nproc, "gomaxprocs": stdruntime.GOMAXPROCS(0), "width": runtime.Parallelism(),
		"go": stdruntime.Version(), "queries": len(s.queries),
	}
	if *trace == 0 {
		timedRun(s, st, dur, rep, env)
	} else {
		tr := newTracer()
		tracedRun(s, st, dur, nproc, tr, rep, env)
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "joinbench:", err)
			return 1
		}
		if err := tr.write(path, env); err != nil {
			fmt.Fprintln(stderr, "joinbench: write spans:", err)
			return 1
		}
		env["spans"] = path
		env["span_count"] = len(tr.spans)
	}
	return rep.print(stdout, stderr, env)
}

// setupStats are the medians of the repeated set-ups.
type setupStats struct{ totalS, genS, oracleS float64 }

// setUp sets the workload up setupReps times, keeping the last set-up.
func setUp(w workload, seed uint64, rep *report) (*setup, setupStats) {
	var s *setup
	var total, gens, oracle []float64
	for i := 0; i < setupReps; i++ {
		s = newSetup(w, seed)
		rep.tally(len(s.queries), s.warmupFailures)
		total = append(total, s.totalS)
		gens = append(gens, s.genS)
		oracle = append(oracle, s.oracleS)
	}
	return s, setupStats{totalS: median(total), genS: median(gens), oracleS: median(oracle)}
}

// timedRun drives untraced closed-loop passes for dur (and at least
// minPasses passes, within overrun × dur) and reports the end-to-end
// metrics.
func timedRun(s *setup, st setupStats, dur time.Duration, rep *report, env map[string]any) {
	stdruntime.GC()
	ticks0, ok0 := readCPUTicks()
	var walls []float64
	var cpuNs int64
	var allocB uint64
	var sums passSums
	queries := 0
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= dur && len(walls) >= minPasses) || el >= overrun*dur {
			break
		}
		pr := runPass(s, nil)
		rep.tally(len(s.queries), pr.failures)
		walls = append(walls, float64(pr.wallNs)/1e6)
		cpuNs += pr.cpuNs
		allocB += pr.allocB
		queries += len(s.queries)
		sums = pr.sums
	}
	ticks1, ok1 := readCPUTicks()
	steal := stealFrac(ticks0, ticks1, ok0 && ok1)
	env["passes"] = len(walls)
	env["host.steal_frac"] = steal

	n := len(walls)
	note := ""
	if lo, hi, ok := hulc(walls); ok {
		note = fmt.Sprintf("HulC 96.9%% interval [%.3f, %.3f] ms", lo, hi)
	}
	rep.add("pass_ms_p50", "ms", median(walls), n, note)
	p90, batches := batchedP90(walls)
	rep.add("pass_ms_p90", "ms", p90, n, fmt.Sprintf("median of the p90s of %d batches of ≥ %d consecutive passes; whole-run p90 %.3f ms",
		batches, p90Batch, quantile(walls, 0.9)))
	rep.add("cpu_ms_per_query", "ms", float64(cpuNs)/1e6/float64(queries), queries, "getrusage user+sys")
	rep.add("alloc_mb_per_query", "MiB", float64(allocB)/(1<<20)/float64(queries), queries, "")
	rep.add("load_L_sum", "tuples", float64(sums.load), n, "identical on every pass")
	rep.add("rounds_sum", "rounds", float64(sums.rounds), n, "identical on every pass")
	rep.add("ok_frac", "frac", float64(rep.attempted-len(rep.failures))/float64(rep.attempted), rep.attempted, fmt.Sprintf("%d failed of %d attempted", len(rep.failures), rep.attempted))
	rep.add("setup_s", "s", st.totalS, setupReps, "generation, oracle and warm-up pass; median")
}

// batchedP90 cuts the passes, in order, into as many consecutive batches
// of at least p90Batch passes as there are (at least one), takes each
// batch's 90th percentile and returns their median. A slow spell of the
// host, a few seconds of hypervisor steal, inflates the tail of the
// batches it falls in, not the run's figure: a whole-run p90 moves with
// the share of passes such spells hit, which varies from run to run far
// more than the median pass time does.
func batchedP90(walls []float64) (float64, int) {
	k := max(1, len(walls)/p90Batch)
	p90s := make([]float64, k)
	for b := range p90s {
		p90s[b] = quantile(walls[b*len(walls)/k:(b+1)*len(walls)/k], 0.9)
	}
	return median(p90s), k
}

// print writes the metric lines, the environment and, last, the one-line
// JSON result. It returns the exit code: non-zero when any query failed.
func (r *report) print(stdout, stderr io.Writer, env map[string]any) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.failures = append(r.failures, fmt.Sprintf("metric %s is not a finite number", m.name))
			v = -1
		}
		line := fmt.Sprintf("%-34s %14.6g %-7s n=%d", m.name, v, m.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(stdout, line)
		if !m.printOnly {
			out[m.name] = value{Value: v, Unit: m.unit}
		}
	}
	for i, f := range r.failures {
		if i == 20 {
			fmt.Fprintf(stderr, "joinbench: ... %d more failures\n", len(r.failures)-i)
			break
		}
		fmt.Fprintln(stderr, "joinbench: FAIL", f)
	}
	envJSON, _ := json.Marshal(env) // map of strings, numbers and bools: cannot fail
	fmt.Fprintln(stdout, "env", string(envJSON))
	res, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, len(r.failures), out})
	fmt.Fprintln(stdout, string(res))
	if len(r.failures) > 0 {
		return 1
	}
	return 0
}
