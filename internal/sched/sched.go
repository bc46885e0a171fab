// Package sched is the shared adaptive scheduler under every parallel
// path in this repository: the River Trail primitives
// (internal/parallel), the speculative ParallelArray engine
// (internal/autopar) and the study orchestrator (internal/study) all
// dispatch their index ranges through it instead of carrying private
// static `len/workers` splits.
//
// The scheduler is a classic work-stealing design specialized for
// deterministic output:
//
//   - Plan first. A run is decomposed into a *chunk plan* — contiguous
//     [Lo, Hi) spans of the index space whose sizes start at
//     n/DefaultDivisor and shrink geometrically toward DefaultMinChunk.
//     The plan is a pure function of n: it never depends on the worker
//     count, on timing, or on which worker ran what. Large chunks while
//     lots of work remains keep per-chunk overhead negligible; small
//     chunks toward the tail keep the finish line balanced even when
//     per-element cost is wildly skewed.
//   - Per-worker deques. Chunks are dealt to the workers as contiguous
//     blocks balanced by element count, preserving index locality. Each
//     worker pops chunks from the front of its own deque.
//   - Randomized stealing. A worker whose deque drains picks victims in
//     a seeded pseudo-random order and steals the *back half* of the
//     first non-empty deque it finds, so a skewed chunk pins only its
//     owner while everyone else drains the rest of the plan.
//
// # Determinism contract
//
// Scheduling is nondeterministic — which worker executes which chunk,
// and in what order, depends on timing. Output must not be. The contract
// with callers is:
//
//  1. body(worker, chunk, lo, hi) may write only into slots addressed by
//     the element index i ∈ [lo, hi) or by the chunk index — never into
//     anything keyed by `worker` that the caller later reads
//     order-sensitively.
//  2. Per-chunk results (reduction partials, filter keeps) are merged by
//     the caller in chunk-index order. Because the chunk plan is a pure
//     function of n, that merge applies the *same* bracketing at every
//     worker count and on every run — so even a non-associative
//     merge is byte-identical across worker counts (it may still differ
//     from a single sequential left fold; associativity closes that last
//     gap, exactly as in the pre-scheduler static-chunk code).
//
// Under that contract, output is byte-identical at 1, 2, 4 and 8 workers
// no matter how stealing interleaves — the property
// internal/sched/sched_test.go and every caller's cross-check assert
// under -race.
//
// Errors cancel: the first body error stops chunk hand-out, remaining
// workers exit at their next chunk boundary, and Run returns the fault
// of the lowest-numbered faulting worker (callers that need richer fault
// semantics, like autopar's guard aborts, record per-worker fault detail
// themselves and treat the returned error as a cancellation signal).
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Span is one contiguous chunk [Lo, Hi) of the scheduled index space.
type Span struct {
	Lo, Hi int
}

// The one chunk plan. Divisor 16 makes the leading chunk n/16 — big
// enough to amortize dispatch, small enough that no single worker can be
// pinned by more than ~1/16 of a uniformly-costed run; MinChunk 8 stops
// the geometric shrink before per-chunk bookkeeping would rival the
// per-element interpreter cost this repository schedules.
const (
	DefaultMinChunk = 8
	DefaultDivisor  = 16
)

// Options tunes one scheduled run.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS. The effective
	// pool is additionally clamped to the number of chunks in the plan.
	Workers int
	// Seed feeds the per-worker steal-victim RNG. It affects which
	// victim a thief probes first — scheduling only, never output.
	Seed uint64
	// Class declares the latency class of the whole run. Fixed-plan
	// runs own their pool for the duration, so the class does not gate
	// scheduling here the way it does in Queue — it is carried into
	// Stats so reports and future cross-pool arbitration can tell an
	// interactive autopar kernel from a batch study grid.
	Class Class
}

// MaxWorkers resolves the requested pool size (<= 0 → GOMAXPROCS)
// before the plan-length clamp. Callers size per-worker state with it.
func (o Options) MaxWorkers() int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Plan decomposes [0, n) into the deterministic chunk plan: span k
// covers max(DefaultMinChunk, remaining/DefaultDivisor) elements, so
// sizes shrink geometrically from n/DefaultDivisor toward
// DefaultMinChunk. The result is a pure function of n — worker count
// and runtime timing never move a chunk boundary, which is what makes
// chunk-order merges byte-identical at every worker count.
func Plan(n int) []Span {
	return geometricPlan(n, DefaultMinChunk, DefaultDivisor)
}

// geometricPlan is Plan with the shrink floor and divisor as
// parameters; only the package's tests pass anything but the defaults.
func geometricPlan(n, minChunk, div int) []Span {
	if n <= 0 {
		return nil
	}
	spans := make([]Span, 0, div)
	for lo := 0; lo < n; {
		size := (n - lo) / div
		if size < minChunk {
			size = minChunk
		}
		if size > n-lo {
			size = n - lo
		}
		spans = append(spans, Span{Lo: lo, Hi: lo + size})
		lo += size
	}
	return spans
}

// UnitPlan returns the finest plan — one chunk per index. Callers with
// naturally coarse work items (the study orchestrator's jobs) use it so
// stealing rebalances at item granularity.
func UnitPlan(n int) []Span {
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = Span{Lo: i, Hi: i + 1}
	}
	return spans
}

// Stats is the run's scheduling telemetry. Everything here describes
// *how* the work was executed, never *what* it computed: steal counts
// and per-worker chunk tallies are timing-dependent and must not feed
// deterministic output.
type Stats struct {
	// Class echoes Options.Class — the latency class the run was
	// declared under.
	Class Class
	// Workers is the resolved pool size (after the GOMAXPROCS default
	// and the plan-length clamp).
	Workers int
	// Chunks is the plan length.
	Chunks int
	// Steals counts successful steal operations (batches moved between
	// deques); StolenChunks counts the chunks those batches carried.
	Steals, StolenChunks int
	// PerWorker is the number of chunks each worker executed.
	PerWorker []int
}

// BodyFunc processes one chunk: element indices [lo, hi) of plan entry
// `chunk`, on pool worker `worker`. Each worker index runs on a single
// goroutine for the whole run, so per-worker state (interpreters,
// guards) needs no locking; a non-nil error cancels the run.
type BodyFunc func(worker, chunk, lo, hi int) error

// Run schedules [0, n) under the default geometric plan.
func Run(n int, opts Options, body BodyFunc) (Stats, error) {
	return RunPlan(Plan(n), opts, body)
}

// RunPlan schedules an explicit chunk plan across the worker pool with
// randomized work stealing. See the package comment for the determinism
// contract; the plan must consist of disjoint spans.
func RunPlan(plan []Span, opts Options, body BodyFunc) (Stats, error) {
	nchunks := len(plan)
	workers := opts.MaxWorkers()
	if workers > nchunks {
		workers = nchunks
	}
	if workers < 1 {
		workers = 1
	}
	st := Stats{Class: opts.Class, Workers: workers, Chunks: nchunks}
	if nchunks == 0 {
		st.PerWorker = []int{0}
		return st, nil
	}
	if workers == 1 {
		st.PerWorker = []int{0}
		for ci, sp := range plan {
			if err := body(0, ci, sp.Lo, sp.Hi); err != nil {
				return st, err
			}
			st.PerWorker[0]++
		}
		return st, nil
	}

	deques := deal(plan, workers)
	var remaining atomic.Int64
	remaining.Store(int64(nchunks))
	// transit counts steal operations between stealBackHalf and the
	// thief's push, and epoch counts completed steals — together the
	// only mechanism that can ever refill a deque. When every deque is
	// empty, nothing is in transit, and no steal completed across the
	// probe, each busy worker holds exactly its current chunk, so no
	// stealable work can materialize again and idle workers exit instead
	// of spinning against the measurement (a chunk, once popped, never
	// returns to a deque).
	var transit, epoch atomic.Int64
	var cancelled atomic.Bool
	errs := make([]error, workers)
	perWorker := make([]int, workers)
	steals := make([]int, workers)
	stolen := make([]int, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			self := deques[w]
			rng := opts.Seed ^ (uint64(w+1) * 0x9E3779B97F4A7C15)
			if rng == 0 {
				rng = uint64(w) + 1
			}
			for !cancelled.Load() {
				ci, ok := self.popFront()
				if !ok {
					// Own deque drained: probe victims in seeded
					// pseudo-random order and steal the back half of the
					// first non-empty one.
					beforeTransit, beforeEpoch := transit.Load(), epoch.Load()
					start := int(nextRand(&rng) % uint64(workers))
					for k := 0; k < workers && !ok; k++ {
						v := (start + k) % workers
						if v == w {
							continue
						}
						transit.Add(1)
						if batch := deques[v].stealBackHalf(); len(batch) > 0 {
							steals[w]++
							stolen[w] += len(batch)
							ci, ok = batch[0], true
							self.push(batch[1:])
							epoch.Add(1)
						}
						transit.Add(-1)
					}
					if !ok {
						if remaining.Load() == 0 {
							return
						}
						if beforeTransit == 0 && transit.Load() == 0 && epoch.Load() == beforeEpoch {
							// Every deque was empty, no steal was in
							// flight around the probe, and none completed
							// during it (a completed steal could have
							// refilled a deque already scanned): the
							// unfinished chunks are all claimed by
							// running workers and nothing can refill a
							// deque — done.
							return
						}
						// A steal was mid-flight or just landed; its
						// chunks sit on the thief's deque momentarily.
						runtime.Gosched()
						continue
					}
				}
				sp := plan[ci]
				if err := body(w, ci, sp.Lo, sp.Hi); err != nil {
					errs[w] = err
					cancelled.Store(true)
					return
				}
				perWorker[w]++
				remaining.Add(-1)
			}
		}(w)
	}
	wg.Wait()

	st.PerWorker = perWorker
	for w := 0; w < workers; w++ {
		st.Steals += steals[w]
		st.StolenChunks += stolen[w]
	}
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// deal partitions the plan into one deque per worker: contiguous chunk
// blocks balanced by element count (not chunk count — leading chunks are
// geometrically larger), preserving index locality for the owner.
func deal(plan []Span, workers int) []*deque {
	deques := make([]*deque, workers)
	ci := 0
	for w := 0; w < workers; w++ {
		after := workers - w - 1 // workers still to be dealt a block
		remElems := 0
		for _, sp := range plan[ci:] {
			remElems += sp.Hi - sp.Lo
		}
		target := remElems / (after + 1)
		var block []int
		got := 0
		// Take chunks until the element target is met, always leaving at
		// least one chunk for every worker after this one.
		for ci < len(plan)-after && (len(block) == 0 || got < target) {
			block = append(block, ci)
			got += plan[ci].Hi - plan[ci].Lo
			ci++
		}
		deques[w] = &deque{idx: block}
	}
	// Rounding leftovers land on the last worker.
	for ; ci < len(plan); ci++ {
		deques[workers-1].idx = append(deques[workers-1].idx, ci)
	}
	return deques
}

// deque is one worker's chunk queue. The owner pops from the front
// (ascending chunk index — locality); thieves take the back half. A
// plain mutex is deliberate: chunks bound whole interpreter runs, so
// queue operations are nowhere near the hot path.
type deque struct {
	mu  sync.Mutex
	idx []int
}

func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.idx) == 0 {
		return 0, false
	}
	ci := d.idx[0]
	d.idx = d.idx[1:]
	return ci, true
}

// stealBackHalf removes and returns the back half (at least one chunk)
// of the deque, nil when empty.
func (d *deque) stealBackHalf() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.idx)
	if n == 0 {
		return nil
	}
	take := (n + 1) / 2
	batch := append([]int(nil), d.idx[n-take:]...)
	d.idx = d.idx[:n-take]
	return batch
}

func (d *deque) push(batch []int) {
	if len(batch) == 0 {
		return
	}
	d.mu.Lock()
	d.idx = append(d.idx, batch...)
	d.mu.Unlock()
}

// nextRand is a xorshift64 step — deterministic per (seed, worker),
// used only for victim selection.
func nextRand(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}
