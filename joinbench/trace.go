package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"repro/internal/engine"
)

// span is one timed call the benchmark made into a layer, with the
// runtime/metrics counters read at its two boundaries.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Label  string `json:"label,omitempty"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Counter deltas over the span.
	AllocBytes     uint64  `json:"alloc_bytes"`
	AllocObjects   uint64  `json:"alloc_objects"`
	GCCycles       uint64  `json:"gc_cycles"`
	GCCPUSeconds   float64 `json:"gc_cpu_s"`
	BusyCPUSeconds float64 `json:"busy_cpu_s"`
	// HeapGoalMax is the larger heap goal seen at the two boundaries.
	HeapGoalMax uint64 `json:"heap_goal_max_bytes"`
	// Engine calls only: what ran and its paper metrics.
	Algorithm string `json:"algorithm,omitempty"`
	Load      int    `json:"load,omitempty"`
	Rounds    int    `json:"rounds,omitempty"`
}

// The runtime/metrics counters read at span boundaries.
var spanMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/goal:bytes",
}

// counters is one reading of spanMetrics.
type counters struct {
	allocB, allocN, gcCycles, heapGoal uint64
	gcCPU, totalCPU, idleCPU           float64
}

// tracer keeps spans in memory; write saves them when the run ends. A nil
// tracer records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	t0      time.Time
	spans   []span
	open    []counters // counters at begin, indexed by span id
	samples []metrics.Sample
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now(), samples: make([]metrics.Sample, len(spanMetrics))}
	for i, name := range spanMetrics {
		tr.samples[i].Name = name
	}
	return tr
}

func (tr *tracer) read() counters {
	metrics.Read(tr.samples)
	f := func(i int) float64 {
		if tr.samples[i].Value.Kind() == metrics.KindFloat64 {
			return tr.samples[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if tr.samples[i].Value.Kind() == metrics.KindUint64 {
			return tr.samples[i].Value.Uint64()
		}
		return 0
	}
	return counters{allocB: u(0), allocN: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4), idleCPU: f(5), heapGoal: u(6)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (tr *tracer) begin(name, layer, label string, parent int) int {
	if tr == nil {
		return -1
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Label: label})
	tr.open = append(tr.open, tr.read())
	tr.spans[id].StartNs = time.Since(tr.t0).Nanoseconds()
	return id
}

// end closes span id, recording res's algorithm and paper metrics when the
// span wraps an engine call.
func (tr *tracer) end(id int, res engine.Result) {
	if tr == nil || id < 0 {
		return
	}
	sp := &tr.spans[id]
	sp.EndNs = time.Since(tr.t0).Nanoseconds()
	c0, c1 := tr.open[id], tr.read()
	sp.AllocBytes = c1.allocB - c0.allocB
	sp.AllocObjects = c1.allocN - c0.allocN
	sp.GCCycles = c1.gcCycles - c0.gcCycles
	sp.GCCPUSeconds = c1.gcCPU - c0.gcCPU
	sp.BusyCPUSeconds = (c1.totalCPU - c1.idleCPU) - (c0.totalCPU - c0.idleCPU)
	sp.HeapGoalMax = max(c0.heapGoal, c1.heapGoal)
	sp.Algorithm, sp.Load, sp.Rounds = res.Algorithm, res.Load, res.Rounds
}

// probe runs fn inside a span and returns its wall time in nanoseconds.
func (tr *tracer) probe(name, layer, label string, parent int, fn func()) int64 {
	id := tr.begin(name, layer, label, parent)
	t0 := time.Now()
	fn()
	ns := time.Since(t0).Nanoseconds()
	tr.end(id, engine.Result{})
	return ns
}

func (sp *span) durNs() int64 { return sp.EndNs - sp.StartNs }

// write saves the spans as JSON lines, after one header line holding the
// run's environment.
func (tr *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
