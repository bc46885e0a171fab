// Package frontend replays the proxy's rewrite front end — lexer,
// parser, instrument transform and encoder — single-threaded over a
// workload's own scripts, and reports each layer's throughput and
// allocations. It lives apart from the benchmark's main package because
// it parses with parser.Parse to get private, mutable trees, which a
// package that imports the interpreter must not do.
package frontend

import (
	"runtime"
	"time"

	"repro/internal/instrument"
	"repro/internal/js/ast"
	"repro/internal/js/lexer"
	"repro/internal/js/parser"
)

// Size buckets: a script is small below SmallMax bytes and large from
// LargeMin bytes.
const (
	SmallMax = 8 << 10
	LargeMin = 64 << 10
)

// Layer is one layer's replay: MB/s over the small and large buckets
// and over every script, and heap allocations per KiB of input.
type Layer struct {
	Small, Large, All float64
	AllocsPerKB       float64
}

// Result holds the four layers' replays.
type Result struct {
	Lex, Parse, Transform, Encode Layer
}

// Replay runs each layer over every script. Scripts that fail to parse
// are skipped by the later layers.
func Replay(scripts [][]byte) Result {
	srcs := make([]string, len(scripts))
	for i, s := range scripts {
		srcs[i] = instrument.Decode(s)
	}
	var r Result
	r.Lex = measure(srcs, func(i int) { lexer.ScanAll(srcs[i]) })
	r.Parse = measure(srcs, func(i int) { _, _ = parser.Parse(srcs[i]) })
	progs := make([]*ast.Program, len(srcs))
	for i, s := range srcs {
		if p, err := parser.Parse(s); err == nil {
			progs[i] = p
		}
	}
	r.Transform = measure(srcs, func(i int) {
		if progs[i] != nil {
			instrument.Transform(progs[i])
		}
	})
	r.Encode = measure(srcs, func(i int) {
		if progs[i] != nil {
			_ = instrument.Encode(progs[i], instrument.ModeLight)
		}
	})
	return r
}

// measure times fn over every script index and sums time and bytes per
// bucket; allocations come from the runtime's malloc count.
func measure(srcs []string, fn func(i int)) Layer {
	var smallB, largeB, allB int
	var smallT, largeT, allT time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, s := range srcs {
		t0 := time.Now()
		fn(i)
		el := time.Since(t0)
		allB += len(s)
		allT += el
		switch {
		case len(s) < SmallMax:
			smallB += len(s)
			smallT += el
		case len(s) >= LargeMin:
			largeB += len(s)
			largeT += el
		}
	}
	runtime.ReadMemStats(&m1)
	return Layer{
		Small:       mbps(smallB, smallT),
		Large:       mbps(largeB, largeT),
		All:         mbps(allB, allT),
		AllocsPerKB: perKB(m1.Mallocs-m0.Mallocs, allB),
	}
}

func mbps(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}

func perKB(allocs uint64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(allocs) / (float64(n) / 1024)
}
