package main

// The seeded input generator. Scripts are cut from the real application
// sources in internal/workloads (the 12 Table 1 apps plus LegacyPage and
// Histogram) at top-level statement boundaries, so generated pages use
// every language feature those apps use, not only loops. A script is a
// unique header line followed by chunks drawn with a seeded RNG until a
// target size is reached, then padded to it; targets are log-uniform
// over the workload's size range, because lexer and printer throughput
// fall with size, and stratified, so every run serves the same sizes.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/js/interp"
	"repro/internal/workloads"
)

// corpusApp is one real application source.
type corpusApp struct {
	name   string
	source string
}

// corpus returns the 14 application sources the generator cuts from.
func corpus() []corpusApp {
	var out []corpusApp
	for _, wl := range workloads.All() {
		out = append(out, corpusApp{wl.Name, wl.Source})
	}
	for _, wl := range []*workloads.Workload{workloads.LegacyPage(), workloads.Histogram()} {
		out = append(out, corpusApp{wl.Name, wl.Source})
	}
	return out
}

// splitTopLevel cuts src into chunks of whole source lines, each
// holding one or more complete top-level statements. A cut is made only
// before a statement that begins its line, so a chunk never starts or
// ends inside a statement.
func splitTopLevel(src string) ([]string, error) {
	prog, err := interp.Load(src)
	if err != nil {
		return nil, err
	}
	lines := strings.SplitAfter(src, "\n")
	var cuts []int // 0-based line indexes where a chunk starts
	for i, st := range prog.Body {
		pos := st.Pos()
		l := pos.Line - 1
		if i == 0 || l <= 0 || l >= len(lines) {
			continue
		}
		if strings.TrimSpace(lines[l][:min(pos.Col-1, len(lines[l]))]) != "" {
			continue // the statement starts mid-line
		}
		if len(cuts) == 0 || cuts[len(cuts)-1] < l {
			cuts = append(cuts, l)
		}
	}
	var chunks []string
	start := 0
	for _, c := range append(cuts, len(lines)) {
		if chunk := strings.Join(lines[start:c], ""); strings.TrimSpace(chunk) != "" {
			chunks = append(chunks, strings.TrimRight(chunk, "\n")+"\n")
		}
		start = c
	}
	return chunks, nil
}

// sizeRange is a workload's script size range in bytes, [lo, hi).
type sizeRange struct{ lo, hi int }

// Script size ranges.
var (
	pageSizes        = sizeRange{2 << 10, 128 << 10}
	interactiveSizes = sizeRange{8 << 10, 16 << 10}
	batchSizes       = sizeRange{64 << 10, 128 << 10}
)

// generator makes the workload inputs from the seed.
type generator struct {
	seed   int64
	chunks []string
}

func newGenerator(seed int64) (*generator, error) {
	g := &generator{seed: seed}
	for _, app := range corpus() {
		cs, err := splitTopLevel(app.source)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", app.name, err)
		}
		g.chunks = append(g.chunks, cs...)
	}
	return g, nil
}

// rng returns a source seeded by the run seed, a stream name and an
// index, so every (stream, index) pair has its own reproducible draw.
func (g *generator) rng(stream string, idx int) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, b := range []byte(stream) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h ^= uint64(g.seed) * 0x9E3779B97F4A7C15
	h ^= uint64(idx) * 0xBF58476D1CE4E5B9
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// strata is the number of equal slices of the log-size range. Each
// block of strata consecutive scripts of a stream takes the middle size
// of every slice once, in a seeded order, so every seed serves the same
// sizes and only content and order differ.
const strata = 64

// script returns script idx of stream: a header line naming it, then
// corpus chunks, padded to its target size in r.
func (g *generator) script(stream string, idx int, r sizeRange) []byte {
	slot := g.rng(stream+"/strata", idx/strata).Perm(strata)[idx%strata]
	return g.scriptOfSize(stream, idx, r.at((float64(slot)+0.5)/strata))
}

// at returns the size at fraction f of the log-size range.
func (r sizeRange) at(f float64) int {
	lo, hi := math.Log(float64(r.lo)), math.Log(float64(r.hi))
	return int(math.Exp(lo + f*(hi-lo)))
}

// scriptOfSize builds script idx of stream to exactly target bytes:
// seeded corpus chunks while they fit, then a comment line of padding.
func (g *generator) scriptOfSize(stream string, idx, target int) []byte {
	rng := g.rng(stream, idx)
	var b strings.Builder
	b.Grow(target)
	fmt.Fprintf(&b, "var __perfbench_script = %q;\n", scriptID(g.seed, stream, idx))
	for misses := 0; misses < 8; {
		c := g.chunks[rng.Intn(len(g.chunks))]
		if b.Len()+len(c) > target {
			misses++
			continue
		}
		b.WriteString(c)
	}
	if pad := target - b.Len(); pad >= 3 {
		b.WriteString("//" + strings.Repeat("-", pad-3) + "\n")
	}
	return []byte(b.String())
}

// scriptID is the unique name written into a script's header line.
func scriptID(seed int64, stream string, idx int) string {
	return fmt.Sprintf("%s-%d-%d", stream, seed, idx)
}

// headerID extracts the scriptID from a generated script's header
// line ("" when src has none).
func headerID(src []byte) string {
	const prefix = "var __perfbench_script = \""
	if len(src) < len(prefix) || string(src[:len(prefix)]) != prefix {
		return ""
	}
	rest := src[len(prefix):]
	for i, c := range rest {
		if c == '"' {
			return string(rest[:i])
		}
	}
	return ""
}

// arrivals returns a seeded Poisson arrival schedule at rate per second
// over d: the offset of each send from the start of the window.
func arrivals(seed int64, stream string, rate float64, d time.Duration) []time.Duration {
	rng := (&generator{seed: seed}).rng(stream, 0)
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}
