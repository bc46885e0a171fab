package main

// Measurement helpers: percentiles and the reported tail, process CPU
// and peak RSS from getrusage, host steal time from /proc/stat, and GC
// counters from runtime/metrics.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, sorting them in place; 0 when there are none.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rankOf(len(samples), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile of n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p*n/100 rounding up
	return min(max(r, 1), n)
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// tailPercentile is the highest percentile of n samples that has at
// least ten samples beyond it (50 when none has).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// tail returns the value at tailPercentile(len(samples)).
func tail(samples []float64) float64 {
	return percentile(samples, tailPercentile(len(samples)))
}

// mean is the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is one getrusage(RUSAGE_SELF) reading.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss << 10, // Linux reports KiB
	}
}

// cpuTimes is the aggregate CPU line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// parseProcStat reads the aggregate "cpu" line: user nice system idle
// iowait irq softirq steal (guest time is already counted in user).
func parseProcStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var ct cpuTimes
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc stat field %d: %w", i, err)
			}
			ct.total += v
			if i == 8 {
				ct.steal = v
			}
		}
		return ct, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTimes{}, err
	}
	return cpuTimes{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

// readSteal reads /proc/stat; a host without it reports zeros.
func readSteal() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	ct, err := parseProcStat(f)
	if err != nil {
		return cpuTimes{}
	}
	return ct
}

// stealFrac is the share of host CPU time stolen between two readings.
func stealFrac(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// gcReading samples the runtime's GC CPU and allocation counters.
type gcReading struct {
	gcCPU, totalCPU float64 // seconds
	allocs          uint64  // heap objects allocated
}

var gcSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readGC() gcReading {
	s := make([]rtmetrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	var r gcReading
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == rtmetrics.KindUint64 {
		r.allocs = s[2].Value.Uint64()
	}
	return r
}

// retainedRSS collects garbage, returns freed memory to the OS, and
// reads the resident set that is left: the memory the run keeps. The
// peak of a garbage-collected process moves with GC timing from run to
// run on the same input; what it retains does not.
func retainedRSS() int64 {
	runtime.GC()
	debug.FreeOSMemory()
	return readRSS()
}

// readRSS returns the process's resident set in bytes from
// /proc/self/statm (0 when unavailable).
func readRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// probe brackets a timed window: wall clock, process CPU, host steal
// and GC counters at its start.
type probe struct {
	t0  time.Time
	u0  usage
	s0  cpuTimes
	gc0 gcReading

	wall, cpu  time.Duration
	maxRSS     int64
	steal      float64
	gcCPUFrac  float64
	heapAllocs uint64
}

func startProbe() *probe {
	p := &probe{s0: readSteal(), gc0: readGC(), u0: readUsage()}
	p.t0 = time.Now()
	return p
}

// stop closes the window.
func (p *probe) stop() {
	p.wall = time.Since(p.t0)
	u1 := readUsage()
	s1 := readSteal()
	gc1 := readGC()
	p.cpu = u1.cpu - p.u0.cpu
	p.maxRSS = u1.maxRSS
	p.steal = stealFrac(p.s0, s1)
	p.gcCPUFrac = ratio(gc1.gcCPU-p.gc0.gcCPU, gc1.totalCPU-p.gc0.totalCPU)
	p.heapAllocs = gc1.allocs - p.gc0.allocs
}
