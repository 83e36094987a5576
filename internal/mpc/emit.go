package mpc

import (
	"sync"

	"repro/internal/relation"
)

// Emitter receives join results. Emission is the model's zero-cost emit():
// it charges no load. The schema of emitted tuples is fixed per join.
//
// The tuple passed to Emit is borrowed, read-only, for the duration of the
// call: producers reuse one scratch row across emissions (core.EmitDist)
// or hand out windows into a part's flat buffer (core's emitParts). An
// emitter that keeps a tuple must copy it — CollectEmitter clones,
// ShardedEmitter appends into its own flat buffer.
type Emitter interface {
	Emit(server int, t relation.Tuple, annot int64)
}

// A PartitionedSink is an emitter that is lock-free under the exchange's
// per-partition ownership contract: concurrent producers are safe as long
// as each partition (server) has exactly one. Parallel emission paths
// discover the capability through this interface rather than enumerating
// concrete types.
type PartitionedSink interface {
	Emitter
	// Partitioned reports whether the sink accepts parts concurrent
	// producers, one per partition.
	Partitioned(parts int) bool
}

// A ForkingSink is an emitter that parallelizes by handing each worker its
// own lock-free emitter and folding them back in worker order. The merge
// must be deterministic for any grouping of the emissions (counting sinks
// over commutative semirings are).
type ForkingSink interface {
	Emitter
	// ForkWorker returns a fresh emitter owned by one worker.
	ForkWorker() Emitter
	// MergeWorkers folds the forked workers back, in the given order.
	MergeWorkers(workers []Emitter)
}

// CountEmitter counts results and sums annotations (for COUNT-style
// verification) without materializing tuples.
type CountEmitter struct {
	N        int64
	AnnotSum int64
	ring     relation.Semiring
}

// NewCountEmitter returns a counter aggregating annotations in ring.
func NewCountEmitter(ring relation.Semiring) *CountEmitter {
	return &CountEmitter{AnnotSum: ring.Zero, ring: ring}
}

// Emit implements Emitter.
func (e *CountEmitter) Emit(_ int, _ relation.Tuple, annot int64) {
	e.N++
	e.AnnotSum = e.ring.Add(e.AnnotSum, annot)
}

// Merge folds the counts of per-worker counters into e. The parallel
// pattern mirrors the cluster's shards: give every worker its own
// CountEmitter over the same ring (Fork), then Merge them at the join
// point.
func (e *CountEmitter) Merge(workers ...*CountEmitter) {
	for _, w := range workers {
		e.N += w.N
		e.AnnotSum = e.ring.Add(e.AnnotSum, w.AnnotSum)
	}
}

// Fork returns a fresh per-worker counter over e's ring, to be folded back
// with Merge.
func (e *CountEmitter) Fork() *CountEmitter { return NewCountEmitter(e.ring) }

// ForkWorker implements ForkingSink.
func (e *CountEmitter) ForkWorker() Emitter { return e.Fork() }

// MergeWorkers implements ForkingSink.
func (e *CountEmitter) MergeWorkers(workers []Emitter) {
	for _, w := range workers {
		e.Merge(w.(*CountEmitter))
	}
}

// CollectEmitter materializes every result into a relation on a single
// goroutine: the engine and the tests use it for serial materializing
// runs. Concurrent producers use ShardedEmitter (lock-free) or wrap a
// CollectEmitter in Synchronized (one mutex).
type CollectEmitter struct {
	Rel *relation.Relation
}

// NewCollectEmitter returns a collector over the given output schema.
func NewCollectEmitter(schema relation.Schema) *CollectEmitter {
	r := relation.New("out", schema)
	r.Annots = []int64{}
	return &CollectEmitter{Rel: r}
}

// Emit implements Emitter.
func (e *CollectEmitter) Emit(_ int, t relation.Tuple, annot int64) {
	e.Rel.Tuples = append(e.Rel.Tuples, t.Clone())
	e.Rel.Annots = append(e.Rel.Annots, annot)
}

// PerServerCounter tracks how many results each server emits; used by tests
// asserting that grid arrangements emit without redundancy.
type PerServerCounter struct {
	Counts []int64
}

// NewPerServerCounter returns a counter for p servers.
func NewPerServerCounter(p int) *PerServerCounter {
	return &PerServerCounter{Counts: make([]int64, p)}
}

// Emit implements Emitter.
func (e *PerServerCounter) Emit(server int, _ relation.Tuple, _ int64) {
	if server >= 0 && server < len(e.Counts) {
		e.Counts[server]++
	}
}

// Partitioned implements PartitionedSink: Emit only touches
// Counts[server], so one producer per server is race-free.
func (e *PerServerCounter) Partitioned(parts int) bool { return len(e.Counts) >= parts }

// Merge adds per-worker counters into e; the slices must be equal length.
func (e *PerServerCounter) Merge(workers ...*PerServerCounter) {
	for _, w := range workers {
		for s, n := range w.Counts {
			e.Counts[s] += n
		}
	}
}

// ShardedEmitter materializes results into per-partition buffers: the
// producer owning partition s (usually server s of the cluster) appends to
// buffer s without any lock, because no other producer touches it. The
// merged relation is assembled in partition order with the emission order
// preserved inside each partition, so the result is byte-identical for
// every worker count — including a single goroutine emitting partitions in
// order, which makes ShardedEmitter a drop-in for CollectEmitter in serial
// runs. This is what lets materializing runs drop Synchronized's mutex.
type ShardedEmitter struct {
	schema relation.Schema
	parts  []Columns
}

// NewShardedEmitter returns a sharded collector over the given output
// schema with one buffer per partition (one per server of the emitting
// cluster). Buffers are columnar: plain joins never materialize an
// annotation column in the buffers.
func NewShardedEmitter(schema relation.Schema, parts int) *ShardedEmitter {
	if parts < 1 {
		parts = 1
	}
	return &ShardedEmitter{schema: schema, parts: make([]Columns, parts)}
}

// Emit implements Emitter. Concurrent calls are safe if and only if each
// partition has a single producer — the exchange's disjoint-ownership
// contract. The flat buffer copies t's values on append, so no defensive
// Clone is needed however the producer reuses its tuple scratch.
func (e *ShardedEmitter) Emit(server int, t relation.Tuple, annot int64) {
	if server < 0 || server >= len(e.parts) {
		panic("mpc: ShardedEmitter partition out of range")
	}
	e.parts[server].Append(t, annot)
}

// Partitions reports the number of buffers.
func (e *ShardedEmitter) Partitions() int { return len(e.parts) }

// Partitioned implements PartitionedSink.
func (e *ShardedEmitter) Partitioned(parts int) bool { return len(e.parts) >= parts }

// N returns the total number of emitted results across partitions.
func (e *ShardedEmitter) N() int64 {
	n := int64(0)
	for s := range e.parts {
		n += int64(e.parts[s].Len())
	}
	return n
}

// Rel merges the buffers into one relation, partition-major; the returned
// tuples are windows into the partitions' flat value buffers.
func (e *ShardedEmitter) Rel() *relation.Relation {
	r := relation.New("out", e.schema)
	n := e.N()
	r.Tuples = make([]relation.Tuple, 0, n)
	r.Annots = make([]int64, 0, n)
	for s := range e.parts {
		p := &e.parts[s]
		for i := 0; i < p.Len(); i++ {
			r.Tuples = append(r.Tuples, p.Tuple(i))
			r.Annots = append(r.Annots, p.Annot(i))
		}
	}
	return r
}

// SyncEmitter serializes emissions with a mutex, making any Emitter —
// in particular materializing ones like CollectEmitter — safe for
// concurrent emitters sharing it across partitions. Counting emitters
// should prefer per-worker emitters merged at the barrier, and
// materializing runs with per-partition producers should prefer
// ShardedEmitter; both stay lock-free on the hot path.
type SyncEmitter struct {
	mu    sync.Mutex
	Inner Emitter
}

// Synchronized wraps e for concurrent use.
func Synchronized(e Emitter) *SyncEmitter { return &SyncEmitter{Inner: e} }

// Emit implements Emitter.
func (e *SyncEmitter) Emit(server int, t relation.Tuple, annot int64) {
	e.mu.Lock()
	e.Inner.Emit(server, t, annot)
	e.mu.Unlock()
}

// MultiEmitter fans one emission out to several emitters.
type MultiEmitter []Emitter

// Emit implements Emitter.
func (m MultiEmitter) Emit(server int, t relation.Tuple, annot int64) {
	for _, e := range m {
		e.Emit(server, t, annot)
	}
}
