package parallel

// This file completes the River Trail primitive set the paper recommends
// (§5.1): beyond map, the reduce, filter and scan combinators, each with
// a sequential counterpart for the package's bit-identical cross-check.
//
// Conventions extending Kernel:
//
//   - reduce/scan additionally require Source to define combine(a, b),
//     an associative, pure fold of two kernel results;
//   - filter additionally requires pred(x, i), a pure predicate over a
//     kernel result and its index.
//
// Scheduling goes through internal/sched: [0, n) decomposes into the
// scheduler's geometric chunk plan — a pure function of n,
// independent of worker count — and chunks are executed by a
// work-stealing pool of share-nothing interpreters. Per-chunk partials
// merge in chunk-index order, so the merge bracketing is identical at
// every worker count. Merging (and, under stealing, any scan element)
// re-invokes combine with values produced on *other* workers'
// interpreters, so those values must be primitives (number, string,
// bool); an object crossing interpreters would alias mutable state
// between workers, and the primitives reject it with an error instead.
//
// Bit-identical equivalence with the sequential counterpart holds
// exactly when the kernel functions honor the contract: kernel and pred
// iteration-independent, combine pure and associative. (Floating-point
// combines that are not associative — e.g. summing values with wildly
// different magnitudes — will be caught by the cross-check, which is the
// point: the check is the safety net the paper's §5.3 asks for.)

import (
	"fmt"
	"runtime"

	"repro/internal/js/value"
	"repro/internal/sched"
)

// FilterResult is the outcome of a filter execution: the kept kernel
// results and their original indices, in index order.
type FilterResult struct {
	Indices []int
	Values  []value.Value
	Workers int
	// Sched is the scheduling telemetry of the parallel run;
	// zero-valued for sequential execution.
	Sched sched.Stats
}

// Callable resolves a function the kernel source must define.
func (w *Worker) Callable(name string) (value.Value, error) {
	fn := w.in.Global(name)
	if !fn.IsCallable() {
		return value.Undefined(), fmt.Errorf("parallel: kernel source does not define %s", name)
	}
	return fn, nil
}

// Call invokes a kernel-defined function on the worker's interpreter.
func (w *Worker) Call(fn value.Value, args ...value.Value) (value.Value, error) {
	return w.in.SafeCall(fn, value.Undefined(), args)
}

// clampWorkers resolves the worker count against n.
func clampWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// foldState is one worker's interpreter plus its resolved combine
// callable — the per-worker state of reduce and scan.
type foldState struct {
	w       *Worker
	combine value.Value
}

// foldStateAt lazily builds the fold worker for pool slot w. No
// locking: sched runs each worker index on a single goroutine.
func (k *Kernel) foldStateAt(states []*foldState, w int) (*foldState, error) {
	if states[w] == nil {
		ww, err := k.NewWorker()
		if err != nil {
			return nil, err
		}
		combine, err := ww.Callable("combine")
		if err != nil {
			return nil, err
		}
		states[w] = &foldState{w: ww, combine: combine}
	}
	return states[w], nil
}

// mergeState picks an interpreter for the chunk-order merge: any
// already-built fold worker serves (they are share-nothing equals), a
// fresh one is built if the pool never materialized.
func (k *Kernel) mergeState(states []*foldState) (*foldState, error) {
	for _, fs := range states {
		if fs != nil {
			return fs, nil
		}
	}
	one := make([]*foldState, 1)
	return k.foldStateAt(one, 0)
}

// crossable rejects values that would carry mutable state between
// share-nothing interpreters.
func crossable(v value.Value, what string) error {
	if v.IsObject() {
		return fmt.Errorf("parallel: %s is an object; reduce/scan values must be primitive to cross workers", what)
	}
	return nil
}

// ---- reduce ----

// ReduceSequential left-folds kernel(0..n) with combine on one
// interpreter: combine(combine(kernel(0), kernel(1)), ...). An empty
// range reduces to undefined.
func (k *Kernel) ReduceSequential(n int) (value.Value, error) {
	w, err := k.NewWorker()
	if err != nil {
		return value.Undefined(), err
	}
	combine, err := w.Callable("combine")
	if err != nil {
		return value.Undefined(), err
	}
	return reduceChunk(w, combine, 0, n)
}

// reduceChunk folds [lo, hi) on one worker.
func reduceChunk(w *Worker, combine value.Value, lo, hi int) (value.Value, error) {
	acc := value.Undefined()
	for i := lo; i < hi; i++ {
		v, err := w.Call(w.fn, value.Int(i))
		if err != nil {
			return value.Undefined(), fmt.Errorf("parallel: kernel(%d): %w", i, err)
		}
		if i == lo {
			acc = v
			continue
		}
		acc, err = w.Call(combine, acc, v)
		if err != nil {
			return value.Undefined(), fmt.Errorf("parallel: combine at %d: %w", i, err)
		}
	}
	return acc, nil
}

// ReduceParallel folds kernel(0..n) across up to `workers` goroutines
// (0 = GOMAXPROCS) under the work-stealing scheduler: each plan chunk
// folds on whichever worker claims it, then the chunk partials fold in
// chunk-index order on one interpreter. The chunk plan — and therefore
// the merge bracketing — is a pure function of n, so the result is
// byte-identical at every worker count; it equals ReduceSequential
// exactly when combine is associative and pure.
func (k *Kernel) ReduceParallel(n, workers int) (value.Value, error) {
	workers = clampWorkers(n, workers)
	if workers <= 1 {
		return k.ReduceSequential(n)
	}

	opts := sched.Options{Workers: workers, Seed: k.Seed}
	plan := sched.Plan(n)
	partials := make([]value.Value, len(plan))
	states := make([]*foldState, opts.MaxWorkers())
	if _, err := sched.RunPlan(plan, opts, func(w, ci, lo, hi int) error {
		fs, err := k.foldStateAt(states, w)
		if err != nil {
			return err
		}
		v, err := reduceChunk(fs.w, fs.combine, lo, hi)
		if err != nil {
			return err
		}
		if err := crossable(v, fmt.Sprintf("chunk %d partial", ci)); err != nil {
			return err
		}
		partials[ci] = v
		return nil
	}); err != nil {
		return value.Undefined(), err
	}

	// Fold chunk partials in plan order on one interpreter.
	fs, err := k.mergeState(states)
	if err != nil {
		return value.Undefined(), err
	}
	acc := partials[0]
	for ci := 1; ci < len(partials); ci++ {
		acc, err = fs.w.Call(fs.combine, acc, partials[ci])
		if err != nil {
			return value.Undefined(), fmt.Errorf("parallel: combine partial %d: %w", ci, err)
		}
	}
	return acc, nil
}

// ---- filter ----

// FilterSequential keeps kernel(i) results for which pred(x, i) is
// truthy, on one interpreter.
func (k *Kernel) FilterSequential(n int) (*FilterResult, error) {
	w, err := k.NewWorker()
	if err != nil {
		return nil, err
	}
	pred, err := w.Callable("pred")
	if err != nil {
		return nil, err
	}
	res := &FilterResult{Workers: 1}
	return res, filterChunk(w, pred, 0, n, res)
}

// filterChunk appends [lo, hi)'s kept elements to res.
func filterChunk(w *Worker, pred value.Value, lo, hi int, res *FilterResult) error {
	for i := lo; i < hi; i++ {
		v, err := w.Call(w.fn, value.Int(i))
		if err != nil {
			return fmt.Errorf("parallel: kernel(%d): %w", i, err)
		}
		keep, err := w.Call(pred, v, value.Int(i))
		if err != nil {
			return fmt.Errorf("parallel: pred(%d): %w", i, err)
		}
		if keep.ToBool() {
			res.Indices = append(res.Indices, i)
			res.Values = append(res.Values, v)
		}
	}
	return nil
}

// FilterParallel filters across up to `workers` goroutines
// (0 = GOMAXPROCS) under the work-stealing scheduler; per-chunk keeps
// concatenate in chunk-index order, so the result is index-ordered and
// identical to FilterSequential for pure predicates, at every worker
// count.
func (k *Kernel) FilterParallel(n, workers int) (*FilterResult, error) {
	workers = clampWorkers(n, workers)
	if workers <= 1 {
		return k.FilterSequential(n)
	}

	type predState struct {
		w    *Worker
		pred value.Value
	}
	opts := sched.Options{Workers: workers, Seed: k.Seed}
	plan := sched.Plan(n)
	locals := make([]*FilterResult, len(plan))
	states := make([]*predState, opts.MaxWorkers())
	stats, err := sched.RunPlan(plan, opts, func(w, ci, lo, hi int) error {
		if states[w] == nil {
			ww, err := k.NewWorker()
			if err != nil {
				return err
			}
			pred, err := ww.Callable("pred")
			if err != nil {
				return err
			}
			states[w] = &predState{w: ww, pred: pred}
		}
		locals[ci] = &FilterResult{}
		return filterChunk(states[w].w, states[w].pred, lo, hi, locals[ci])
	})
	if err != nil {
		return nil, err
	}

	res := &FilterResult{Workers: stats.Workers, Sched: stats}
	for _, l := range locals {
		res.Indices = append(res.Indices, l.Indices...)
		res.Values = append(res.Values, l.Values...)
	}
	return res, nil
}

// EqualFilter reports whether two filter results kept the same indices
// with strictly equal values.
func EqualFilter(a, b *FilterResult) bool {
	if len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] || !value.StrictEquals(a.Values[i], b.Values[i]) {
			return false
		}
	}
	return true
}

// ---- scan ----

// ScanSequential computes the inclusive prefix fold on one interpreter:
// out[0] = kernel(0), out[i] = combine(out[i-1], kernel(i)).
func (k *Kernel) ScanSequential(n int) (*Result, error) {
	w, err := k.NewWorker()
	if err != nil {
		return nil, err
	}
	combine, err := w.Callable("combine")
	if err != nil {
		return nil, err
	}
	out := make([]value.Value, n)
	if err := scanChunkLocal(w, combine, 0, n, out); err != nil {
		return nil, err
	}
	return &Result{Values: out, Workers: 1}, nil
}

// scanChunkLocal fills out[lo:hi] with the inclusive scan of the chunk's
// own kernel values (no cross-chunk offset).
func scanChunkLocal(w *Worker, combine value.Value, lo, hi int, out []value.Value) error {
	for i := lo; i < hi; i++ {
		v, err := w.Call(w.fn, value.Int(i))
		if err != nil {
			return fmt.Errorf("parallel: kernel(%d): %w", i, err)
		}
		if i == lo {
			out[i] = v
			continue
		}
		out[i], err = w.Call(combine, out[i-1], v)
		if err != nil {
			return fmt.Errorf("parallel: combine at %d: %w", i, err)
		}
	}
	return nil
}

// ScanParallel computes the inclusive prefix fold with the classic tiled
// three-phase algorithm, both parallel phases under the work-stealing
// scheduler: (1) each plan chunk scans locally on whichever worker
// claims it, (2) chunk totals fold sequentially into per-chunk offsets,
// (3) each tail chunk combines its offset into its local elements. The
// plan is a pure function of n, so the offset bracketing is identical at
// every worker count; because stealing may run phases of the same chunk
// on different interpreters, every scanned value must be primitive
// (enforced). Equals ScanSequential exactly when combine is associative
// and pure.
func (k *Kernel) ScanParallel(n, workers int) (*Result, error) {
	workers = clampWorkers(n, workers)
	if workers <= 1 {
		return k.ScanSequential(n)
	}

	out := make([]value.Value, n)
	opts := sched.Options{Workers: workers, Seed: k.Seed}
	plan := sched.Plan(n)
	states := make([]*foldState, opts.MaxWorkers())

	// Phase 1: local inclusive scans, chunk by chunk.
	stats, err := sched.RunPlan(plan, opts, func(w, ci, lo, hi int) error {
		fs, err := k.foldStateAt(states, w)
		if err != nil {
			return err
		}
		if err := scanChunkLocal(fs.w, fs.combine, lo, hi, out); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			if err := crossable(out[i], fmt.Sprintf("scan value at %d", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: per-chunk offsets — the left fold of preceding chunk
	// totals (each chunk's total is its last local-scan element),
	// bracketed by the fixed plan.
	ms, err := k.mergeState(states)
	if err != nil {
		return nil, err
	}
	offsets := make([]value.Value, len(plan))
	acc := value.Undefined()
	for ci := 1; ci < len(plan); ci++ {
		total := out[plan[ci-1].Hi-1]
		if ci == 1 {
			acc = total
		} else {
			acc, err = ms.w.Call(ms.combine, acc, total)
			if err != nil {
				return nil, fmt.Errorf("parallel: combine offsets: %w", err)
			}
			if err := crossable(acc, fmt.Sprintf("chunk %d offset", ci)); err != nil {
				return nil, err
			}
		}
		offsets[ci] = acc
	}

	// Phase 3: apply offsets to every tail chunk (plan[1:], so the body's
	// chunk index is shifted by one).
	if len(plan) > 1 {
		s3, err := sched.RunPlan(plan[1:], opts, func(w, ci, lo, hi int) error {
			fs, err := k.foldStateAt(states, w)
			if err != nil {
				return err
			}
			offset := offsets[ci+1]
			for i := lo; i < hi; i++ {
				v, err := fs.w.Call(fs.combine, offset, out[i])
				if err != nil {
					return fmt.Errorf("parallel: combine offset at %d: %w", i, err)
				}
				out[i] = v
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Whole-run telemetry: steal counters accumulate across both
		// parallel phases; Chunks stays the decomposition size (phase 3
		// re-schedules the same tail chunks, it does not add new ones).
		stats.Steals += s3.Steals
		stats.StolenChunks += s3.StolenChunks
	}
	return &Result{Values: out, Workers: stats.Workers, Sched: stats}, nil
}
