package main

// The parallel-array workload: one caller runs a seeded cycle of River
// Trail operations at two workers with default speculation options —
// mapPar over each of the eight ExecKernels and a streaming pipePar
// over the ImagePipe decode/filter/encode chain. Each operation has its
// own interpreter, set up before timing, and its result must equal the
// same operation's result at one worker.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"repro/internal/autopar"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/printer"
	"repro/internal/js/value"
	"repro/internal/parallel"
	"repro/internal/rivertrail"
	"repro/internal/sched"
	"repro/internal/workloads"
	"repro/perfbench/frontend"
)

// paDiv divides each kernel's full-scale element count, so that one
// operation takes roughly 10-30 ms on a 2-CPU host; paDivs overrides it
// for the loops whose elements cost several times the others'.
const paDiv = 4

var paDivs = map[string]int{
	"evalStage window scan":               16,
	"skewed adaptive supersampling":       12,
	"decode/filter/encode pixel pipeline": 12,
}

// paN is the element count one operation over loop runs.
func paN(loop string, full int) int {
	if d, ok := paDivs[loop]; ok {
		return full / d
	}
	return full / paDiv
}

// paWorkers is the speculation pool size of the timed operations.
const paWorkers = 2

// paOp is one operation kind of the cycle with its own interpreter.
type paOp struct {
	name       string
	prelude    string
	elementals []string
	pipe       bool
	n          int
	inputs     []value.Value

	in   *interp.Interp
	st   *rivertrail.State
	prog *ast.Program // the timed operation
	want uint64       // result signature at one worker
}

type parallelArray struct {
	ops   []*paOp
	cycle []int // op indexes in seeded order
	seed  int64
	// windows counts windows run; each starts the cycle elsewhere.
	windows int
}

// paWindow is the workload's record of one window.
type paWindow struct {
	reports []rivertrail.Report
	// byOp holds each op kind's latencies in milliseconds.
	byOp [][]float64
}

// newInterp returns a compiled-engine interpreter whose step budget
// never runs out over a run's operations (steps accumulate per
// interpreter).
func newInterp(seed int64) *interp.Interp {
	in := interp.New(interp.WithSeed(uint64(seed)), interp.WithMaxSteps(math.MaxInt64/2))
	in.SetCompile(true)
	return in
}

func (op *paOp) options(workers int) autopar.Options {
	return autopar.Options{Workers: workers, Pipeline: op.pipe}
}

// stagesSource declares the elementals as __f1.. after the prelude.
func (op *paOp) stagesSource() string {
	var b strings.Builder
	b.WriteString(op.prelude)
	b.WriteString("\n")
	for s, el := range op.elementals {
		fmt.Fprintf(&b, "var __f%d = %s;\n", s+1, el)
	}
	return b.String()
}

func newPAOp(name, prelude string, elementals []string, pipe bool, n int, input func(int) float64, off int, seed int64) (*paOp, error) {
	op := &paOp{name: name, prelude: prelude, elementals: elementals, pipe: pipe, n: n}
	for i := 0; i < n; i++ {
		op.inputs = append(op.inputs, value.Number(input(i+off)))
	}
	var opSrc string
	if pipe {
		args := make([]string, len(elementals))
		for s := range elementals {
			args[s] = fmt.Sprintf("__f%d", s+1)
		}
		opSrc = "var __out = __pa.pipePar(" + strings.Join(args, ", ") + ");\n"
	} else {
		// Inline, as casestudy -exec passes it.
		opSrc = "var __out = __pa.mapPar(" + elementals[0] + ");\n"
	}
	setup, err := interp.Load(op.stagesSource() + "var __pa = ParallelArray(__rawInput);\n")
	if err != nil {
		return nil, err
	}
	if op.prog, err = interp.Load(opSrc); err != nil {
		return nil, err
	}
	op.in = newInterp(seed)
	op.st = rivertrail.Install(op.in)
	op.in.SetGlobal("__rawInput", value.ObjectVal(op.in.NewArray(op.inputs...)))
	if err := op.in.Run(setup); err != nil {
		return nil, err
	}
	// The oracle: the same operation at one worker.
	op.st.SetOptions(op.options(1))
	if err := op.in.Run(op.prog); err != nil {
		return nil, err
	}
	if op.want, err = resultSig(op.in, "__out"); err != nil {
		return nil, err
	}
	op.st.SetOptions(op.options(paWorkers))
	return op, nil
}

// resultSig hashes the elements of the array or ParallelArray in the
// named global.
func resultSig(in *interp.Interp, name string) (uint64, error) {
	v := in.Global(name)
	if !v.IsObject() {
		return 0, fmt.Errorf("%s is not an object", name)
	}
	elems := v.Object().Elems
	if !v.Object().IsArray() {
		fn, ok := v.Object().Get("toArray")
		if !ok {
			return 0, fmt.Errorf("%s has no toArray", name)
		}
		arr, err := in.SafeCall(fn, v, nil)
		if err != nil {
			return 0, err
		}
		elems = arr.Object().Elems
	}
	h := fnv.New64a()
	var b [8]byte
	for _, e := range elems {
		if e.IsNumber() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Num()))
			h.Write(b[:])
			continue
		}
		h.Write([]byte(e.ToString()))
	}
	binary.LittleEndian.PutUint64(b[:], uint64(len(elems)))
	h.Write(b[:])
	return h.Sum64(), nil
}

func setupParallelArray(seed int64, _ bool) (workload, error) {
	g := &generator{seed: seed}
	pa := &parallelArray{seed: seed}
	for k, ek := range workloads.ExecKernels() {
		op, err := newPAOp(ek.App+" "+ek.Loop, ek.Prelude, []string{ek.Elemental}, false,
			paN(ek.Loop, ek.N), ek.Input, g.rng("pa-input", k).Intn(1024), seed)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", ek.App, ek.Loop, err)
		}
		pa.ops = append(pa.ops, op)
	}
	pk := workloads.ImagePipe()
	var els []string
	for _, s := range pk.Stages {
		els = append(els, s.Elemental)
	}
	op, err := newPAOp(pk.App+" "+pk.Loop, pk.Prelude, els, true,
		paN(pk.Loop, pk.N), pk.Input, g.rng("pa-input", len(pa.ops)).Intn(1024), seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pk.Loop, err)
	}
	pa.ops = append(pa.ops, op)
	pa.cycle = g.rng("pa-cycle", 0).Perm(len(pa.ops))
	return pa, nil
}

func (pa *parallelArray) run(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	pw := &paWindow{byOp: make([][]float64, len(pa.ops))}
	deadline := time.Now().Add(d)
	for k := pa.windows * len(pa.ops); time.Now().Before(deadline); k++ {
		i := pa.cycle[k%len(pa.cycle)]
		op := pa.ops[i]
		w.attempted++
		s := tr.begin(spanClient, tr.newRequest(), 0)
		t0 := time.Now()
		err := op.in.Run(op.prog)
		el := time.Since(t0)
		tr.finish(s)
		if err != nil {
			w.failed++
			continue
		}
		pw.reports = append(pw.reports, op.st.Last())
		if sig, err := resultSig(op.in, "__out"); err != nil || sig != op.want {
			w.failed++
			w.mismatched++
			continue
		}
		w.ops++
		w.lat = append(w.lat, ms(el))
		pw.byOp[i] = append(pw.byOp[i], ms(el))
	}
	pa.windows++
	w.state = pw
	return w, nil
}

// verify is a no-op: every result was compared with its one-worker
// oracle as it completed.
func (pa *parallelArray) verify(*window) error { return nil }

func (pa *parallelArray) close() {}

// layers sets the rivertrail/autopar metrics from the window's reports
// and the sequential baselines and single-layer replays.
func (pa *parallelArray) layers(w *window, m metrics) error {
	pw := w.state.(*paWindow)
	var parallelOps, misspec, chunks, steals, stalls, profiled, elements int
	for _, r := range pw.reports {
		if r.Parallel {
			parallelOps++
		}
		if r.Misspeculated {
			misspec++
		}
		chunks += r.Chunks
		steals += r.Steals
		stalls += r.Stalls
		profiled += r.Profiled
		elements += r.Elements
	}
	nops := float64(len(pw.reports))
	m["pa.parallel_frac"] = ratio(float64(parallelOps), nops)
	m["pa.profiled_frac"] = ratio(float64(profiled), float64(elements))
	m["pa.misspeculated"] = float64(misspec)
	m["pa.chunks_per_op"] = ratio(float64(chunks), nops)
	m["pa.steals_per_op"] = ratio(float64(steals), nops)
	m["pa.pipe_stalls_per_op"] = ratio(float64(stalls), nops)

	// Sequential baselines over two cycles: the same operation at one
	// worker, and the same elemental(s) in a plain loop on the compiled
	// engine, the fastest sequential path.
	var seqMs, loopMs []float64
	var loopSum, parSum float64
	for _, op := range pa.ops {
		op.st.SetOptions(op.options(1))
		for rep := 0; rep < 2; rep++ {
			t0 := time.Now()
			if err := op.in.Run(op.prog); err != nil {
				return err
			}
			seqMs = append(seqMs, ms(time.Since(t0)))
		}
		op.st.SetOptions(op.options(paWorkers))
		lm, err := op.loopMs(pa.seed)
		if err != nil {
			return fmt.Errorf("%s loop: %w", op.name, err)
		}
		loopMs = append(loopMs, lm...)
		loopSum += percentile(lm, 50)
	}
	for _, lat := range pw.byOp {
		parSum += percentile(lat, 50)
	}
	m["pa.seq_ms_p50"] = percentile(seqMs, 50)
	m["pa.loop_ms_p50"] = percentile(loopMs, 50)
	m["pa.speedup_vs_loop"] = ratio(loopSum, parSum)
	m["parallel.map_overhead_frac"] = mapOverhead()
	m["sched.run_us_per_chunk"] = schedRunPerChunk()
	m["capture.print_us"] = pa.capturePrint()

	var scripts [][]byte
	for _, op := range pa.ops {
		scripts = append(scripts, []byte(op.stagesSource()))
	}
	m["key.sha256_mb_per_s"] = sha256Replay(scripts)
	frontEndMetrics(frontend.Replay(scripts), m)
	return nil
}

// loopMs times the operation's elementals as a plain sequential loop,
// twice, and checks the loop computes the operation's result.
func (op *paOp) loopMs(seed int64) ([]float64, error) {
	call := "__rawInput[__i]"
	for s := range op.elementals {
		call = fmt.Sprintf("__f%d(%s, __i)", s+1, call)
	}
	setup, err := interp.Load(op.stagesSource())
	if err != nil {
		return nil, err
	}
	loop, err := interp.Load("var __lo = [];\nfor (var __i = 0; __i < __rawInput.length; __i++) { __lo.push(" + call + "); }\n")
	if err != nil {
		return nil, err
	}
	in := newInterp(seed)
	in.SetGlobal("__rawInput", value.ObjectVal(in.NewArray(op.inputs...)))
	if err := in.Run(setup); err != nil {
		return nil, err
	}
	var out []float64
	for rep := 0; rep < 2; rep++ {
		t0 := time.Now()
		if err := in.Run(loop); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	if sig, err := resultSig(in, "__lo"); err != nil || sig != op.want {
		return nil, fmt.Errorf("plain loop result differs from the operation's (%v)", err)
	}
	return out, nil
}

// mapOverhead runs each ExecKernel through parallel.Kernel at two
// workers and at one, and returns how far the two-worker time misses
// half the one-worker time, as a share of that half.
func mapOverhead() float64 {
	var seq, par time.Duration
	for _, ek := range workloads.ExecKernels() {
		k := &parallel.Kernel{Source: ek.KernelSource(), Seed: 1}
		n := paN(ek.Loop, ek.N)
		if _, err := k.MapSequential(n); err != nil { // warm the parse and compile caches
			return 0
		}
		t0 := time.Now()
		if _, err := k.MapSequential(n); err != nil {
			return 0
		}
		t1 := time.Now()
		if _, err := k.MapParallel(n, paWorkers); err != nil {
			return 0
		}
		seq += t1.Sub(t0)
		par += time.Since(t1)
	}
	return ratio(par.Seconds(), seq.Seconds()/paWorkers) - 1
}

// schedRunPerChunk times sched.Run with an empty body and returns the
// median cost per chunk in microseconds.
func schedRunPerChunk() float64 {
	var per []float64
	for rep := 0; rep < 200; rep++ {
		t0 := time.Now()
		st, err := sched.Run(4096, sched.Options{Workers: paWorkers}, func(int, int, int, int) error { return nil })
		if err != nil || st.Chunks == 0 {
			return 0
		}
		per = append(per, us(time.Since(t0))/float64(st.Chunks))
	}
	return percentile(per, 50)
}

// capturePrint times printer.PrintExpr on each elemental's function
// AST — the serialization capture pays per dispatch — and returns the
// median in microseconds.
func (pa *parallelArray) capturePrint() float64 {
	var per []float64
	for _, op := range pa.ops {
		for _, el := range op.elementals {
			prog, err := interp.Load("var __f = " + el + ";\n")
			if err != nil || len(prog.Body) == 0 {
				continue
			}
			decl, ok := prog.Body[0].(*ast.VarDecl)
			if !ok || len(decl.Inits) == 0 {
				continue
			}
			for rep := 0; rep < 50; rep++ {
				t0 := time.Now()
				_ = printer.PrintExpr(decl.Inits[0])
				per = append(per, us(time.Since(t0)))
			}
		}
	}
	return percentile(per, 50)
}
