package main

import (
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/engine"
)

// passSums are the paper-metric and communication sums of one pass. For a
// fixed seed every field is deterministic: it may not depend on timing,
// tracing or the data-plane width.
type passSums struct {
	load, rounds       int64
	comm               int64
	exchanges, exTuple int64
}

// paper is one query's load and round count.
type paper struct{ load, rounds int }

// passResult is one closed-loop pass over a workload's query list. Costs
// are measured around the engine calls only; the result checks run
// outside them.
type passResult struct {
	wallNs   int64 // Σ wall time of the engine calls
	cpuNs    int64 // Σ process CPU time of the engine calls
	allocB   uint64
	sums     passSums
	queries  []paper
	failures []string
}

// runPass runs every query once, in list order, each one starting when
// the previous one has returned, and checks each result against the
// oracle. Once the set-up has recorded the warm-up pass, every query must
// also reproduce that pass's load and rounds exactly: they are fixed by
// the seed, so a difference is a failure, not a measurement. tr, when
// non-nil, records a span around each engine call under one pass span.
func runPass(s *setup, tr *tracer) passResult {
	var pr passResult
	pass := tr.begin("pass", "bench", "", -1)
	for i := range s.queries {
		q := &s.queries[i]
		name := "engine.RunNamed"
		if q.algo == "" {
			name = "engine.AutoRun"
		}
		sp := tr.begin(name, "engine", q.label, pass)
		a0, c0, t0 := allocBytes(), cpuNanos(), time.Now()
		res, err := s.run(q)
		wall := time.Since(t0).Nanoseconds()
		cpu, alloc := cpuNanos()-c0, allocBytes()-a0
		tr.end(sp, res)

		pr.wallNs += wall
		pr.cpuNs += cpu
		pr.allocB += alloc
		pr.queries = append(pr.queries, paper{load: res.Load, rounds: res.Rounds})
		if err == nil {
			err = s.verify(q, res)
		}
		if err == nil && s.ref != nil && (s.ref[i].load != res.Load || s.ref[i].rounds != res.Rounds) {
			err = fmt.Errorf("load %d, rounds %d; the warm-up pass measured load %d, rounds %d",
				res.Load, res.Rounds, s.ref[i].load, s.ref[i].rounds)
		}
		if err != nil {
			pr.failures = append(pr.failures, fmt.Sprintf("%s: %v", q.label, err))
			continue
		}
		pr.sums.load += int64(res.Load)
		pr.sums.rounds += int64(res.Rounds)
		pr.sums.comm += int64(res.TotalComm)
		pr.sums.exchanges += int64(res.Exchange.Exchanges)
		pr.sums.exTuple += res.Exchange.Tuples
	}
	tr.end(pass, engine.Result{Load: int(pr.sums.load), Rounds: int(pr.sums.rounds)})
	return pr
}

// cpuNanos is the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// allocSamples are the process's cumulative heap allocation counters, the
// runtime/metrics counterparts of MemStats.TotalAlloc and Mallocs without
// ReadMemStats' stop-the-world. The benchmark is one client, so one
// goroutine reads them.
var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

func allocBytes() uint64 {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64()
}

func allocObjects() uint64 {
	metrics.Read(allocSamples)
	return allocSamples[1].Value.Uint64()
}
