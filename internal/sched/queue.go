// The open-ended half of the scheduler. RunPlan (sched.go) schedules a
// *fixed* index space — the shape of a ParallelArray operation or a
// study grid, where the whole plan is known up front. A serving system
// has the opposite shape: an unbounded stream of requests arriving at
// unknown times, where the thing that must be bounded is not the plan
// but the *admission* — how much work is allowed to be outstanding at
// once. Queue is that entry point: a long-lived worker pool with a
// bounded admission queue, explicit saturation (ErrSaturated, never an
// unbounded goroutine-per-request). Each admission is exactly one job:
// a job does all of its work inline and never enqueues more.
//
// Admissions carry a latency Class (class.go). The queue is two-lane:
// every queued interactive job runs before any batch job, and at
// saturation batch is shed before interactive is ever rejected (an
// interactive Submit evicts the oldest still-queued batch job rather
// than return ErrSaturated while one exists). Batch admissions may also
// carry a queue-wait deadline: a batch job a worker reaches past its
// MaxWait is shed instead of run late.
package sched

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// ErrSaturated is returned by Queue.Submit when the admission bound is
// reached: the caller must shed load (HTTP 429, retry later) instead of
// queueing without limit. It is a sentinel — match with errors.Is.
// Batch admissions shed before they run (eviction or deadline) report
// it through OnShed.
var ErrSaturated = errors.New("sched: queue saturated")

// ErrClosed is returned by Queue.Submit after Close.
var ErrClosed = errors.New("sched: queue closed")

// Job is one unit of queued work. The worker index has the same
// contract as BodyFunc's: each index is serviced by a single goroutine
// for the queue's lifetime, so per-worker state needs no locking. A job
// must never block on other queue work — follow-on work runs inline in
// the job — or it can deadlock the pool.
type Job func(w *WorkerCtx)

// WorkerCtx is passed to every job.
type WorkerCtx struct {
	// Worker is the pool worker index in [0, Workers).
	Worker int
}

// task is one admission and its job. class and done are guarded by
// Queue.mu — class changes at most once (batch → interactive, via
// Promote), and done marks the admission slot freed (job finished, or
// shed before running) and makes any later Promote a no-op.
type task struct {
	fn       Job
	class    Class
	done     bool
	onShed   func()
	enq      time.Time
	deadline time.Time // batch admissions with MaxWait; zero otherwise
}

// waitRingSize bounds each class's queue-wait sample ring (recent
// admissions only — percentiles describe current behaviour, not all
// history).
const waitRingSize = 1024

// Queue is a long-lived worker pool with bounded admission. Safe for
// concurrent use.
type Queue struct {
	workers int
	depth   int

	mu   sync.Mutex
	cond *sync.Cond
	// Lane order is the whole scheduling policy: the interactive lane
	// drains entirely before the batch lane, FIFO within a lane.
	lanes   [numClasses][]*task
	closed  bool
	tickets int // admissions whose job has not finished or been shed

	classTickets [numClasses]int
	submitted    [numClasses]int64
	rejected     [numClasses]int64
	shed         [numClasses]int64
	promoted     int64
	completed    int64
	maxQueued    int

	waits  [numClasses][waitRingSize]time.Duration
	waitN  [numClasses]int64 // waits recorded (ring index = waitN % size)
	waitNs [numClasses]int64 // sum of all waits, for the mean
	wg     sync.WaitGroup
}

// ClassQueueStats is the per-class slice of QueueStats.
type ClassQueueStats struct {
	// Submitted counts admitted Submit calls; Rejected counts Submits
	// that returned ErrSaturated; Shed counts admissions dropped after
	// admission but before their job ran (batch eviction at
	// saturation, or MaxWait deadline).
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed"`
	// InFlight is the number of admission tickets currently held at
	// this class (a promoted admission counts as interactive).
	InFlight int `json:"in_flight"`
	// QueueWait* describe time admitted jobs of this class spent
	// queued before they started: mean over whole history,
	// percentiles and max over the last waitRingSize admissions.
	QueueWaitMean time.Duration `json:"queue_wait_mean_ns"`
	QueueWaitP50  time.Duration `json:"queue_wait_p50_ns"`
	QueueWaitP99  time.Duration `json:"queue_wait_p99_ns"`
	QueueWaitMax  time.Duration `json:"queue_wait_max_ns"`
}

// QueueStats is a point-in-time snapshot of the queue counters. The
// top-level fields aggregate both classes (pre-class dashboards keep
// working); Interactive and Batch carry the per-class split.
type QueueStats struct {
	// Workers and Depth echo the construction parameters.
	Workers int `json:"workers"`
	Depth   int `json:"depth"`
	// Submitted/Rejected count Submit calls (admitted vs ErrSaturated);
	// Shed counts admitted-then-dropped jobs; Completed counts jobs
	// executed (one per admission that was not shed); Promoted counts
	// batch→interactive promotions.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed"`
	Promoted  int64 `json:"promoted"`
	Completed int64 `json:"completed"`
	// InFlight is the number of admission tickets currently held.
	InFlight int `json:"in_flight"`
	// MaxQueued is the high-water mark of queued (not yet running) jobs.
	MaxQueued int `json:"max_queued"`
	// QueueWait* merge both classes' samples; the per-class split lives
	// in Interactive/Batch.
	QueueWaitMean time.Duration `json:"queue_wait_mean_ns"`
	QueueWaitP50  time.Duration `json:"queue_wait_p50_ns"`
	QueueWaitP99  time.Duration `json:"queue_wait_p99_ns"`
	QueueWaitMax  time.Duration `json:"queue_wait_max_ns"`

	Interactive ClassQueueStats `json:"interactive"`
	Batch       ClassQueueStats `json:"batch"`
}

// NewQueue starts a pool of `workers` goroutines (<= 0 → 1) accepting
// at most `depth` outstanding admissions (<= 0 → workers*2). Callers
// must Close it when done.
func NewQueue(workers, depth int) *Queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = workers * 2
	}
	q := &Queue{workers: workers, depth: depth}
	q.cond = sync.NewCond(&q.mu)
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go q.work(w)
	}
	return q
}

// Workers returns the pool size.
func (q *Queue) Workers() int { return q.workers }

// Depth returns the admission bound.
func (q *Queue) Depth() int { return q.depth }

// Submit admits fn at ClassInteractive, or reports ErrSaturated when
// `depth` admissions are already outstanding and none can be shed (an
// admission stays outstanding until its job returns). Submit never
// blocks: backpressure is the caller's to surface, immediately.
func (q *Queue) Submit(fn Job) error {
	_, err := q.SubmitWith(fn, SubmitOptions{})
	return err
}

// SubmitWith admits fn under opts. At the admission bound the shed
// order is class-asymmetric: a batch Submit is rejected outright, while
// an interactive Submit first evicts the oldest still-queued batch job
// (its OnShed fires) and is only rejected when no queued batch work
// remains — so batch always sheds before any interactive rejection.
// The returned Handle supports priority inheritance via Promote; it is
// nil exactly when err is non-nil.
func (q *Queue) SubmitWith(fn Job, opts SubmitOptions) (*Handle, error) {
	class := opts.Class
	if class < 0 || class >= numClasses {
		class = ClassInteractive
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	var evicted func()
	if q.tickets >= q.depth {
		ok := false
		if class == ClassInteractive {
			if victim := q.evictQueuedBatchLocked(); victim != nil {
				evicted = victim.onShed
				ok = true
			}
		}
		if !ok {
			q.rejected[class]++
			q.mu.Unlock()
			return nil, ErrSaturated
		}
	}
	q.tickets++
	q.classTickets[class]++
	q.submitted[class]++
	tk := &task{fn: fn, class: class, onShed: opts.OnShed, enq: time.Now()}
	if class == ClassBatch && opts.MaxWait > 0 {
		tk.deadline = tk.enq.Add(opts.MaxWait)
	}
	q.lanes[class] = append(q.lanes[class], tk)
	if n := q.queuedLocked(); n > q.maxQueued {
		q.maxQueued = n
	}
	q.cond.Signal()
	q.mu.Unlock()
	if evicted != nil {
		evicted()
	}
	return &Handle{q: q, tk: tk}, nil
}

// evictQueuedBatchLocked drops the oldest queued batch job to free its
// admission slot for an arriving interactive request. Returns the shed
// task (its OnShed must be called after the lock is released), or nil
// when no batch job is still queued — batch work that already started
// is never preempted.
func (q *Queue) evictQueuedBatchLocked() *task {
	tk := q.popLocked(ClassBatch)
	if tk != nil {
		q.freeLocked(tk, true)
	}
	return tk
}

// freeLocked releases an admission slot — either its job finished
// (shed=false) or it was dropped before running (shed=true). done makes
// late Promotes no-ops.
func (q *Queue) freeLocked(tk *task, shed bool) {
	tk.done = true
	q.tickets--
	q.classTickets[tk.class]--
	if shed {
		q.shed[tk.class]++
	}
}

func (q *Queue) queuedLocked() int {
	n := 0
	for c := Class(0); c < numClasses; c++ {
		n += len(q.lanes[c])
	}
	return n
}

// popLocked removes and returns the front of class c's lane, or nil
// when it is empty. The popped slot is cleared: the backing array
// outlives the pop, and a stale pointer there would keep a finished
// job's inputs reachable.
func (q *Queue) popLocked(c Class) *task {
	lane := q.lanes[c]
	if len(lane) == 0 {
		return nil
	}
	tk := lane[0]
	lane[0] = nil
	q.lanes[c] = lane[1:]
	return tk
}

// dequeueLocked pops the next task in lane-priority order, or returns
// nil when every lane is empty.
func (q *Queue) dequeueLocked() *task {
	for c := Class(0); c < numClasses; c++ {
		if tk := q.popLocked(c); tk != nil {
			return tk
		}
	}
	return nil
}

func (q *Queue) work(w int) {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for q.queuedLocked() == 0 && !q.closed {
			q.cond.Wait()
		}
		tk := q.dequeueLocked()
		if tk == nil {
			// Closed and drained; no job can enqueue more work.
			q.mu.Unlock()
			return
		}
		// Deadline shed: a batch job reached past its MaxWait is
		// dropped instead of run late. Promotion clears the check
		// (tk.class is read under the lock), so an inherited-priority
		// job always runs.
		if !tk.deadline.IsZero() && tk.class == ClassBatch && time.Now().After(tk.deadline) {
			q.freeLocked(tk, true)
			q.mu.Unlock()
			if tk.onShed != nil {
				tk.onShed()
			}
			continue
		}
		q.recordWaitLocked(tk.class, time.Since(tk.enq))
		q.mu.Unlock()

		runJob(tk.fn, &WorkerCtx{Worker: w})

		q.mu.Lock()
		q.completed++
		q.freeLocked(tk, false)
		q.mu.Unlock()
	}
}

// runJob contains a panicking job so one bad input cannot kill a
// shared worker or corrupt the queue's admission accounting.
// Containment is all the queue can do — it cannot deliver a result on
// the job's behalf, so jobs that report through channels or callbacks
// must install their own recover (as the proxy pipeline does) or their
// waiters hang.
func runJob(fn Job, w *WorkerCtx) {
	defer func() { _ = recover() }()
	fn(w)
}

func (q *Queue) recordWaitLocked(class Class, d time.Duration) {
	q.waits[class][q.waitN[class]%waitRingSize] = d
	q.waitN[class]++
	q.waitNs[class] += int64(d)
}

// Close stops admission immediately (Submit returns ErrClosed), lets
// queued jobs finish, and waits for the workers to exit. Queued batch
// jobs still run — Close drains, it does not shed.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}

// Stats snapshots the counters under one lock.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{
		Workers:   q.workers,
		Depth:     q.depth,
		Promoted:  q.promoted,
		Completed: q.completed,
		InFlight:  q.tickets,
		MaxQueued: q.maxQueued,
	}
	var merged []time.Duration
	var sumNs, sumN int64
	for c := Class(0); c < numClasses; c++ {
		cs := ClassQueueStats{
			Submitted: q.submitted[c],
			Rejected:  q.rejected[c],
			Shed:      q.shed[c],
			InFlight:  q.classTickets[c],
		}
		st.Submitted += q.submitted[c]
		st.Rejected += q.rejected[c]
		st.Shed += q.shed[c]
		n := q.waitN[c]
		if n > waitRingSize {
			n = waitRingSize
		}
		if n > 0 {
			sample := make([]time.Duration, n)
			copy(sample, q.waits[c][:n])
			fillWaitPercentiles(sample, &cs.QueueWaitP50, &cs.QueueWaitP99, &cs.QueueWaitMax)
			cs.QueueWaitMean = time.Duration(q.waitNs[c] / q.waitN[c])
			merged = append(merged, sample...)
			sumNs += q.waitNs[c]
			sumN += q.waitN[c]
		}
		switch c {
		case ClassInteractive:
			st.Interactive = cs
		case ClassBatch:
			st.Batch = cs
		}
	}
	if len(merged) > 0 {
		fillWaitPercentiles(merged, &st.QueueWaitP50, &st.QueueWaitP99, &st.QueueWaitMax)
		st.QueueWaitMean = time.Duration(sumNs / sumN)
	}
	return st
}

// fillWaitPercentiles sorts sample in place and writes p50/p99/max.
func fillWaitPercentiles(sample []time.Duration, p50, p99, max *time.Duration) {
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	*p50 = sample[len(sample)*50/100]
	i99 := len(sample) * 99 / 100
	if i99 >= len(sample) {
		i99 = len(sample) - 1
	}
	*p99 = sample[i99]
	*max = sample[len(sample)-1]
}
