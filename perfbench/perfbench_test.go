package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current front end")

func TestGoldenDigests(t *testing.T) {
	got, err := goldenDigests()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 28 {
		t.Fatalf("%d digests, want 14 sources x 2 modes", len(got))
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	bad, err := checkGolden()
	if err != nil || bad != 0 {
		t.Fatalf("golden digests: %d mismatches, err %v", bad, err)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	g1, err := newGenerator(7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := newGenerator(7)
	g3, _ := newGenerator(8)
	for i := 0; i < 5; i++ {
		a, b, c := g1.script("cold", i, pageSizes), g2.script("cold", i, pageSizes), g3.script("cold", i, pageSizes)
		if !bytes.Equal(a, b) {
			t.Fatalf("script %d differs between two generators with seed 7", i)
		}
		if bytes.Equal(a, c) {
			t.Fatalf("script %d is the same for seeds 7 and 8", i)
		}
	}
	a, b, c := arrivals(7, "ia", 100, time.Second), arrivals(7, "ia", 100, time.Second), arrivals(8, "ia", 100, time.Second)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("arrival schedules for seed 7 differ or are empty (%d, %d)", len(a), len(b))
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 give the same arrival schedule")
	}
}

func TestScriptsRewriteAndFitSizes(t *testing.T) {
	g, err := newGenerator(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.chunks {
		if _, err := oracle([]byte(c)); err != nil {
			t.Fatalf("chunk does not rewrite on its own: %v\n%s", err, c)
		}
	}
	for i := 0; i < 20; i++ {
		for _, r := range []sizeRange{pageSizes, interactiveSizes, batchSizes} {
			src := g.script("s", i, r)
			if len(src) < r.lo || len(src) >= r.hi {
				t.Errorf("script of %d bytes outside [%d, %d)", len(src), r.lo, r.hi)
			}
			if headerID(src) != scriptID(1, "s", i) {
				t.Errorf("header id %q", headerID(src))
			}
			if _, err := oracle(src); err != nil {
				t.Fatalf("script %d does not rewrite: %v", i, err)
			}
		}
	}
}

// TestOracleCountsBadBodies feeds the post-window check a correct body,
// a truncated one and one with a byte changed: only the first passes.
func TestOracleCountsBadBodies(t *testing.T) {
	g, err := newGenerator(3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle(g.script("cold", 0, pageSizes))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), want...)
	corrupt[len(corrupt)/2] ^= 1
	w := &window{ops: 3, attempted: 3}
	w.state = &proxyWindow{served: []servedScript{
		{stream: "cold", idx: 0, sum: sha256.Sum256(want)},
		{stream: "cold", idx: 0, sum: sha256.Sum256(want[:len(want)-10])},
		{stream: "cold", idx: 0, sum: sha256.Sum256(corrupt)},
	}}
	if !strings.Contains(string(corrupt), "__ceres") {
		t.Fatal("fixture: a substring check would have accepted the corrupted body")
	}
	e := &proxyEnv{g: g, org: &origin{sizes: map[string]sizeRange{"cold": pageSizes}}}
	if err := e.verifyServed(w); err != nil {
		t.Fatal(err)
	}
	if w.mismatched != 2 || w.failed != 2 || w.ops != 1 {
		t.Fatalf("mismatched=%d failed=%d ops=%d, want 2, 2, 1", w.mismatched, w.failed, w.ops)
	}
}

func TestParseProcStat(t *testing.T) {
	const fixture = "cpu  4705 150 1120 16250 520 0 30 880 0 0\n" +
		"cpu0 2000 75 560 8125 260 0 15 440 0 0\n" +
		"intr 114930548 113199788 3 0 5 263 0 4 [... 1 0 0]\n"
	ct, err := parseProcStat(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if ct.total != 4705+150+1120+16250+520+0+30+880 || ct.steal != 880 {
		t.Fatalf("parsed %+v", ct)
	}
	later := cpuTimes{total: ct.total + 1000, steal: ct.steal + 250}
	if f := stealFrac(ct, later); f != 0.25 {
		t.Fatalf("steal fraction %v, want 0.25", f)
	}
	if _, err := parseProcStat(strings.NewReader("intr 1 2 3\n")); err == nil {
		t.Fatal("no aggregate line parsed without error")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	cases := map[int]float64{10: 50, 20: 50, 100: 90, 200: 95, 1000: 99, 5000: 99, 10000: 99.9}
	for n, want := range cases {
		p := tailPercentile(n)
		if p != want {
			t.Errorf("n=%d: tail at p%v, want p%v", n, p, want)
		}
		if n >= 20 && n-rankOf(n, p) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", n, p, n-rankOf(n, p))
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(1000 - i)
	}
	if v := tail(s); v != 990 {
		t.Fatalf("tail of 1..1000 = %v, want 990 (ten samples above)", v)
	}
}

// TestSpansNestUnderClient runs short traced windows of the proxy
// workloads and checks every span's parent chain ends at its own
// request's client span.
func TestSpansNestUnderClient(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	for _, name := range []string{"cold-pages", "hot-fleet", "interactive-under-batch"} {
		t.Run(name, func(t *testing.T) {
			wl, err := setups[name](5, true)
			if err != nil {
				t.Fatal(err)
			}
			defer wl.close()
			tr := newTracer()
			w, err := wl.run(400*time.Millisecond, tr)
			if err != nil {
				t.Fatal(err)
			}
			spans := nest(tr.collected())
			byID := make(map[int64]span)
			names := make(map[string]int)
			for _, s := range spans {
				byID[s.id] = s
				names[s.name]++
			}
			for _, s := range spans {
				root, ok := rootOf(s, byID)
				if !ok || root.name != spanClient || root.req != s.req {
					t.Fatalf("span %s (req %d) does not nest under its client span (root %s req %d)", s.name, s.req, root.name, root.req)
				}
			}
			if names[spanClient] == 0 || names[spanHandler] == 0 || names[spanOrigin] == 0 {
				t.Fatalf("span counts %v", names)
			}
			if name != "hot-fleet" && names[spanRewrite] == 0 {
				t.Fatalf("no rewrite spans: %v", names)
			}
			if name == "hot-fleet" && names[spanPeer] == 0 {
				t.Fatalf("no peer spans: %v", names)
			}
			if err := wl.verify(w); err != nil || w.failed != 0 {
				t.Fatalf("verify: %v, failed %d", err, w.failed)
			}
		})
	}
}

// rootOf follows parents to the request's root span; ok is false when
// the chain breaks.
func rootOf(s span, byID map[int64]span) (span, bool) {
	for i := 0; i < 64 && s.parent != 0; i++ {
		p, ok := byID[s.parent]
		if !ok {
			return s, false
		}
		s = p
	}
	return s, s.parent == 0
}
