package main

// The three proxy workloads share one environment: a loopback origin
// that serves the seeded scripts, one or two serving proxies at
// ceresproxy's defaults (mode light, GOMAXPROCS pipeline workers, queue
// depth 2×workers, 64 MiB sharded cache) and, for the fleet, the
// cluster layer with replication off. Clients are this process's own
// goroutines, one HTTP connection each.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/proxy"
	"repro/perfbench/frontend"
)

// mode is ceresproxy's default instrumentation mode.
const mode = instrument.ModeLight

// oracle is the reference output for src: the one-shot rewrite.
func oracle(src []byte) ([]byte, error) {
	res, err := instrument.Rewrite(instrument.Decode(src), mode)
	if err != nil {
		return nil, err
	}
	return []byte(res.Source), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// server is one HTTP server on a loopback listener.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func serve(ln net.Listener, h http.Handler) *server {
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

func scriptPath(stream string, idx int) string { return "/" + stream + "/" + strconv.Itoa(idx) + ".js" }

// parseScriptPath splits "/stream/idx.js".
func parseScriptPath(p string) (string, int, bool) {
	stream, file, ok := strings.Cut(strings.TrimPrefix(p, "/"), "/")
	if !ok || !strings.HasSuffix(file, ".js") {
		return "", 0, false
	}
	idx, err := strconv.Atoi(strings.TrimSuffix(file, ".js"))
	return stream, idx, err == nil
}

// origin serves generated scripts: pre-generated ones from pool, the
// rest generated on request from the stream's size range.
type origin struct {
	g     *generator
	sizes map[string]sizeRange
	pool  map[string][]byte // read-only once serving
}

func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, ok := o.pool[r.URL.Path]
	if !ok {
		stream, idx, ok := parseScriptPath(r.URL.Path)
		sr, known := o.sizes[stream]
		if !ok || !known {
			http.NotFound(w, r)
			return
		}
		body = o.g.script(stream, idx, sr)
	}
	w.Header().Set("Content-Type", "application/javascript")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// node is one serving proxy with its server.
type node struct {
	p   *proxy.Proxy
	cn  *cluster.Node
	srv *server
}

// client is one load-generating connection.
type client struct {
	hc *http.Client
	t  *http.Transport
}

func newClient() *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t}, t: t}
}

// do sends req as one client operation, traced as a client span when tr
// is non-nil, and returns the full body and status.
func (c *client) do(tr *tracer, req *http.Request, scripts ...string) ([]byte, int, error) {
	if tr != nil {
		rid := tr.newRequest(scripts...)
		s := tr.begin(spanClient, rid, 0)
		req.Header.Set(traceHeader, traceRef{rid, s.id}.header())
		defer tr.finish(s)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (c *client) get(tr *tracer, url string, scripts ...string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	return c.do(tr, req, scripts...)
}

// prewarm POSTs urls to /__ceres/prewarm in batches of at most four,
// re-posting items the pipeline shed until every one is rewritten.
func (c *client) prewarm(node string, urls []string) error {
	pending := urls
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt == 100 {
			return fmt.Errorf("prewarm: %d scripts still shed after %d attempts", len(pending), attempt)
		}
		var shed []string
		for i := 0; i < len(pending); i += 4 {
			resp, err := c.postPrewarm(nil, node, pending[i:min(i+4, len(pending))])
			if err != nil {
				return err
			}
			for _, it := range resp.Items {
				switch it.Status {
				case "ok":
				case "saturated":
					shed = append(shed, it.Target)
				default:
					return fmt.Errorf("prewarm %s: %s %s", it.Target, it.Status, it.Error)
				}
			}
		}
		pending = shed
		if len(shed) > 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func (c *client) postPrewarm(tr *tracer, node string, urls []string, scripts ...string) (*proxy.PrewarmResponse, error) {
	payload, err := json.Marshal(proxy.PrewarmRequest{URLs: urls})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, node+"/__ceres/prewarm", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	body, status, err := c.do(tr, req, scripts...)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("prewarm: status %d: %s", status, body)
	}
	var resp proxy.PrewarmResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("prewarm response: %w", err)
	}
	return &resp, nil
}

// proxyEnv is the origin, the nodes and the clients of one workload.
type proxyEnv struct {
	g       *generator
	org     *origin
	orgSrv  *server
	nodes   []*node
	clients []*client
	// transports are the program's own origin and peer transports.
	transports []*http.Transport

	// slot and originBytes feed the traced wrappers (traced runs only).
	traced      bool
	slot        tracerSlot
	originBytes atomic.Int64
	// windows counts windows run, so each window gets fresh inputs.
	windows int
}

// newProxyEnv starts the origin over pool and sizes, then n nodes
// (a fleet when n > 1) and nClients client connections.
func newProxyEnv(g *generator, sizes map[string]sizeRange, pool map[string][]byte, n, nClients int, traced bool) (*proxyEnv, error) {
	e := &proxyEnv{g: g, org: &origin{g: g, sizes: sizes, pool: pool}, traced: traced}
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	e.orgSrv = serve(ln, e.org)
	if err := e.startNodes(n); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < nClients; i++ {
		e.clients = append(e.clients, newClient())
	}
	return e, nil
}

// transport returns a fresh transport for the program's outgoing calls,
// wrapped to record spans named name in a traced run.
func (e *proxyEnv) transport(name string, counter *atomic.Int64) http.RoundTripper {
	t := http.DefaultTransport.(*http.Transport).Clone()
	e.transports = append(e.transports, t)
	if !e.traced {
		return t
	}
	return tracedTransport{base: t, slot: &e.slot, name: name, bytes: counter}
}

func (e *proxyEnv) startNodes(n int) error {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	for i, ln := range lns {
		p, err := proxy.NewServing(e.orgSrv.url, mode, "", proxy.ServeConfig{})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
		p.Client = &http.Client{Transport: e.transport(spanOrigin, &e.originBytes)}
		var h http.Handler = p
		if e.traced {
			p.Cache.SetRewriteFunc(tracedRewrite(&e.slot, p.Pipeline))
			h = tracedHandler{next: p, slot: &e.slot}
		}
		nd := &node{p: p}
		if n > 1 {
			cn, err := cluster.New(cluster.Config{
				Self:   urls[i],
				Peers:  urls,
				Client: &http.Client{Transport: e.transport(spanPeer, nil)},
			})
			if err != nil {
				p.Close()
				for _, l := range lns[i:] {
					l.Close()
				}
				return err
			}
			p.Cluster, nd.cn = cn, cn
			cn.Start()
		}
		nd.srv = serve(ln, h)
		e.nodes = append(e.nodes, nd)
	}
	return nil
}

func (e *proxyEnv) close() {
	for _, c := range e.clients {
		c.t.CloseIdleConnections()
	}
	for _, n := range e.nodes {
		if n.cn != nil {
			n.cn.Close()
		}
		n.srv.close()
		n.p.Close()
	}
	for _, t := range e.transports {
		t.CloseIdleConnections()
	}
	if e.orgSrv != nil {
		e.orgSrv.close()
	}
}

// nextWindow marks the start of a window: installs tr for the traced
// wrappers and returns the window's number.
func (e *proxyEnv) nextWindow(tr *tracer) int {
	e.slot.Store(tr)
	e.windows++
	return e.windows - 1
}

// counters is the fleet-wide sum of the program's own counters.
type counters struct {
	hits, misses, coalesced, evictions int64
	rewrites                           int64
	stageJobs, stageUs                 [4]int64
	rejected, shed, promoted           int64
	forwarded, retries, fallbacks      int64
	originBytes                        int64
}

func (e *proxyEnv) snapshot() counters {
	c := counters{originBytes: e.originBytes.Load()}
	for _, n := range e.nodes {
		st := n.p.Stats()
		c.hits += st.CacheHits
		c.misses += st.CacheMisses
		c.coalesced += st.Coalesced
		c.evictions += st.CacheEvictions
		if ps := st.Pipeline; ps != nil {
			c.rewrites += ps.Completed + ps.Failures
			for i, s := range ps.Stages {
				c.stageJobs[i] += s.Jobs
				c.stageUs[i] += s.TotalUs
			}
			c.rejected += ps.Queue.Rejected
			c.shed += ps.Queue.Shed
			c.promoted += ps.Queue.Promoted
		}
		if cs := st.Cluster; cs != nil {
			c.forwarded += cs.ForwardedOut
			c.retries += cs.ForwardRetries
			c.fallbacks += cs.ForwardFallbacks
		}
	}
	return c
}

func (c counters) sub(b counters) counters {
	d := counters{
		hits: c.hits - b.hits, misses: c.misses - b.misses, coalesced: c.coalesced - b.coalesced,
		evictions: c.evictions - b.evictions, rewrites: c.rewrites - b.rewrites,
		rejected: c.rejected - b.rejected, shed: c.shed - b.shed, promoted: c.promoted - b.promoted,
		forwarded: c.forwarded - b.forwarded, retries: c.retries - b.retries, fallbacks: c.fallbacks - b.fallbacks,
		originBytes: c.originBytes - b.originBytes,
	}
	for i := range d.stageJobs {
		d.stageJobs[i] = c.stageJobs[i] - b.stageJobs[i]
		d.stageUs[i] = c.stageUs[i] - b.stageUs[i]
	}
	return d
}

// proxyWindow is a proxy workload's record of one window.
type proxyWindow struct {
	delta counters
	// served lists responses to check after the window, by digest.
	served []servedScript
	// scripts is a sample of the window's scripts for the front-end
	// replay; warm[i] are scripts resident in node i's cache.
	scripts [][]byte
	warm    [][][]byte
}

// servedScript is one response to verify: the script it answered and
// the SHA-256 of the body (or, for a prewarm item, of nothing: the
// cached rewrite is checked instead).
type servedScript struct {
	stream string
	idx    int
	sum    [sha256.Size]byte
	cached bool
}

// tally is one client's results, merged into the window by add.
type tally struct {
	ops, attempted, failed, mismatched int64
	lat, lag                           []float64
	served                             []servedScript
}

func (w *window) add(t *tally) {
	w.ops += t.ops
	w.attempted += t.attempted
	w.failed += t.failed
	w.mismatched += t.mismatched
	w.lat = append(w.lat, t.lat...)
	w.lag = append(w.lag, t.lag...)
}

// verifyServed recomputes the oracle of every served script on two
// goroutines and counts mismatches as failed operations.
func (e *proxyEnv) verifyServed(w *window) error {
	pw := w.state.(*proxyWindow)
	var bad atomic.Int64
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(pw.served); i += 2 {
				s := pw.served[i]
				src := e.g.script(s.stream, s.idx, e.org.sizes[s.stream])
				want, err := oracle(src)
				if err != nil {
					mu.Lock()
					firstErr = fmt.Errorf("oracle %s: %w", scriptID(e.g.seed, s.stream, s.idx), err)
					mu.Unlock()
					return
				}
				if s.cached {
					got, err := e.nodes[0].p.Cache.Rewrite(src, mode)
					if err != nil || !bytes.Equal(got, want) {
						bad.Add(1)
					}
					continue
				}
				if sha256.Sum256(want) != s.sum {
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	w.mismatched += bad.Load()
	w.failed += bad.Load()
	w.ops -= bad.Load()
	return firstErr
}

// layers sets the proxy, origin, cache, queue, pipeline, peer and
// front-end metrics of a traced window.
func (e *proxyEnv) layers(w *window, m metrics) error {
	pw := w.state.(*proxyWindow)
	d := pw.delta
	self := selfTimes(w.spans)
	byID := make(map[int64]span, len(w.spans))
	for _, s := range w.spans {
		byID[s.id] = s
	}
	isTop := func(s span) bool { return byID[s.parent].name == spanClient }
	under := func(s span) bool { // s's parent is a top-level handler
		p, ok := byID[s.parent]
		return ok && p.name == spanHandler && isTop(p)
	}

	var selfUs, originUs, peerUs, rewriteMs, waitI, waitB []float64
	var top, selfTop, originTop, peerTop, queueTop, originDur time.Duration
	for _, s := range w.spans {
		switch s.name {
		case spanHandler:
			selfUs = append(selfUs, us(self[s.id]))
			if isTop(s) {
				top += s.dur()
				selfTop += self[s.id]
			}
		case spanOrigin:
			originUs = append(originUs, us(s.dur()))
			originDur += s.dur()
			if under(s) {
				originTop += s.dur()
			}
		case spanPeer:
			peerUs = append(peerUs, us(s.dur()))
			if under(s) {
				peerTop += s.dur()
			}
		case spanRewrite:
			rewriteMs = append(rewriteMs, ms(s.dur()-s.wait))
			if s.class == 0 {
				waitI = append(waitI, us(s.wait))
			} else {
				waitB = append(waitB, us(s.wait))
			}
			if under(s) {
				queueTop += s.wait
			}
		}
	}
	topUs := us(top)
	m["proxy.self_us_p50"] = percentile(selfUs, 50)
	m["proxy.self_us_tail"] = tail(selfUs)
	m["proxy.share.self"] = ratio(us(selfTop), topUs)
	m["proxy.share.origin"] = ratio(us(originTop), topUs)
	m["proxy.share.peer"] = ratio(us(peerTop), topUs)
	m["proxy.share.queue"] = ratio(us(queueTop), topUs)
	m["proxy.share.parse_encode"] = ratio(float64(d.stageUs[1]+d.stageUs[3]), topUs)
	m["proxy.share.decode_transform"] = ratio(float64(d.stageUs[0]+d.stageUs[2]), topUs)

	m["origin.fetch_us_p50"] = percentile(originUs, 50)
	m["origin.fetch_us_tail"] = tail(originUs)
	m["origin.mb_per_s"] = ratio(float64(d.originBytes)/1e6, originDur.Seconds())

	m["cache.hit_ratio"] = ratio(float64(d.hits), float64(d.hits+d.misses+d.coalesced))
	m["cache.coalesced"] = float64(d.coalesced)
	m["cache.evictions"] = float64(d.evictions)
	m["cache.hit_ns_p50"] = e.cacheHitReplay(pw.warm)
	m["key.sha256_mb_per_s"] = sha256Replay(pw.scripts)

	m["queue.wait_us_p50.interactive"] = percentile(waitI, 50)
	m["queue.wait_us_tail.interactive"] = tail(waitI)
	m["queue.wait_us_p50.batch"] = percentile(waitB, 50)
	m["queue.wait_us_tail.batch"] = tail(waitB)
	m["queue.rejected"] = float64(d.rejected)
	m["queue.shed"] = float64(d.shed)
	m["queue.promoted"] = float64(d.promoted)

	m["pipeline.rewrites"] = float64(d.rewrites)
	m["pipeline.rewrite_ms_p50"] = percentile(rewriteMs, 50)
	m["pipeline.rewrite_ms_tail"] = tail(rewriteMs)
	stageSum := 0.0
	for i, name := range proxy.StageNames {
		v := ratio(float64(d.stageUs[i]), float64(d.stageJobs[i]))
		m["pipeline.stage_us_mean."+name] = v
		stageSum += v
	}
	if len(rewriteMs) > 0 {
		m["pipeline.hop_us_mean"] = mean(rewriteMs)*1000 - stageSum
	}

	m["peer.forward_us_p50"] = percentile(peerUs, 50)
	m["peer.forward_us_tail"] = tail(peerUs)
	m["peer.forwarded_frac"] = ratio(float64(d.forwarded), float64(w.attempted))
	m["peer.retries"] = float64(d.retries)
	m["peer.fallbacks"] = float64(d.fallbacks)

	frontEndMetrics(frontend.Replay(pw.scripts), m)
	return nil
}

// cacheHitReplay times RewriteCache.Rewrite on keys already resident in
// each node's cache and returns the median in nanoseconds.
func (e *proxyEnv) cacheHitReplay(warm [][][]byte) float64 {
	var ns []float64
	for i, keys := range warm {
		c := e.nodes[i].p.Cache
		for rep := 0; rep < 20; rep++ {
			for _, src := range keys {
				t0 := time.Now()
				_, _ = c.Rewrite(src, mode) // a resident key: a hit
				ns = append(ns, float64(time.Since(t0)))
			}
		}
	}
	return percentile(ns, 50)
}

// sha256Replay hashes the scripts the way the cache keys them and
// returns the throughput.
func sha256Replay(scripts [][]byte) float64 {
	var n int
	t0 := time.Now()
	for rep := 0; rep < 5; rep++ {
		for _, s := range scripts {
			_ = sha256.Sum256(s)
			n += len(s)
		}
	}
	return ratio(float64(n)/1e6, time.Since(t0).Seconds())
}

func frontEndMetrics(r frontend.Result, m metrics) {
	m["lex.mb_per_s.small"] = r.Lex.Small
	m["lex.mb_per_s.large"] = r.Lex.Large
	m["lex.allocs_per_kb"] = r.Lex.AllocsPerKB
	m["parse.mb_per_s.small"] = r.Parse.Small
	m["parse.mb_per_s.large"] = r.Parse.Large
	m["parse.allocs_per_kb"] = r.Parse.AllocsPerKB
	m["transform.mb_per_s"] = r.Transform.All
	m["encode.mb_per_s.small"] = r.Encode.Small
	m["encode.mb_per_s.large"] = r.Encode.Large
	m["encode.allocs_per_kb"] = r.Encode.AllocsPerKB
}

// ---- hot-fleet -------------------------------------------------------

// hotSet is the number of scripts the hot-fleet workload serves.
const hotSet = 64

type hotFleet struct {
	env        *proxyEnv
	srcs, want [][]byte
}

func setupHotFleet(seed int64, traced bool) (workload, error) {
	g, err := newGenerator(seed)
	if err != nil {
		return nil, err
	}
	h := &hotFleet{}
	pool := make(map[string][]byte, hotSet)
	var urls []string
	for i := 0; i < hotSet; i++ {
		src := g.script("hot", i, pageSizes)
		want, err := oracle(src)
		if err != nil {
			return nil, fmt.Errorf("oracle hot %d: %w", i, err)
		}
		h.srcs, h.want = append(h.srcs, src), append(h.want, want)
		pool[scriptPath("hot", i)] = src
		urls = append(urls, scriptPath("hot", i))
	}
	h.env, err = newProxyEnv(g, nil, pool, 2, 2, traced)
	if err != nil {
		return nil, err
	}
	if err := h.env.clients[0].prewarm(h.env.nodes[0].srv.url, urls); err != nil {
		h.env.close()
		return nil, err
	}
	return h, nil
}

func (h *hotFleet) run(d time.Duration, tr *tracer) (*window, error) {
	e := h.env
	win := e.nextWindow(tr)
	defer e.slot.Store(nil)
	before := e.snapshot()
	w := &window{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each connection is pinned to one node; keys owned by the
			// other node take the peer hop.
			rng := e.g.rng("hot-seq", win*len(e.clients)+c)
			base := e.nodes[c].srv.url
			t := &tally{}
			for time.Now().Before(deadline) {
				idx := rng.Intn(hotSet)
				t.attempted++
				t0 := time.Now()
				body, status, err := e.clients[c].get(tr, base+scriptPath("hot", idx), scriptID(e.g.seed, "hot", idx))
				el := time.Since(t0)
				switch {
				case err != nil || status != http.StatusOK:
					t.failed++
				case !bytes.Equal(body, h.want[idx]):
					t.failed++
					t.mismatched++
				default:
					t.ops++
					t.lat = append(t.lat, ms(el))
				}
			}
			mu.Lock()
			w.add(t)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	pw := &proxyWindow{delta: e.snapshot().sub(before), scripts: h.srcs}
	for _, n := range e.nodes {
		var own [][]byte
		for _, src := range h.srcs {
			if _, local := n.cn.OwnerFor(cluster.PointForSource(src, int(mode))); local {
				own = append(own, src)
			}
		}
		pw.warm = append(pw.warm, own)
	}
	w.state = pw
	return w, nil
}

// verify is a no-op: every hot-fleet body was compared with its oracle
// as it arrived.
func (h *hotFleet) verify(*window) error { return nil }

func (h *hotFleet) layers(w *window, m metrics) error { return h.env.layers(w, m) }

func (h *hotFleet) close() { h.env.close() }

// ---- cold-pages ------------------------------------------------------

// warmups is the number of distinct scripts sent through a fresh
// single node at set-up, to open its connections before timing. Their
// sizes are spread evenly over the log-size range, the same for every
// seed, so set-up does the same work whatever the seed.
const warmups = 16

type coldPages struct {
	env *proxyEnv
}

// warmPool generates the warm-up scripts for the origin to serve.
func warmPool(g *generator, r sizeRange) map[string][]byte {
	pool := make(map[string][]byte, warmups)
	for i := 0; i < warmups; i++ {
		pool[scriptPath("warm", i)] = g.scriptOfSize("warm", i, r.at((float64(i)+0.5)/warmups))
	}
	return pool
}

// warmUp sends the warm-up scripts through node 0, spread over the
// clients, and checks each against its oracle.
func (e *proxyEnv) warmUp() error {
	for i := 0; i < warmups; i++ {
		want, err := oracle(e.org.pool[scriptPath("warm", i)])
		if err != nil {
			return err
		}
		body, status, err := e.clients[i%len(e.clients)].get(nil, e.nodes[0].srv.url+scriptPath("warm", i))
		if err != nil {
			return err
		}
		if status != http.StatusOK || !bytes.Equal(body, want) {
			return fmt.Errorf("warm-up script %d: status %d or body differs from its oracle", i, status)
		}
	}
	return nil
}

func setupColdPages(seed int64, traced bool) (workload, error) {
	g, err := newGenerator(seed)
	if err != nil {
		return nil, err
	}
	cp := &coldPages{}
	cp.env, err = newProxyEnv(g, map[string]sizeRange{"cold": pageSizes}, warmPool(g, pageSizes), 1, 2, traced)
	if err != nil {
		return nil, err
	}
	if err := cp.env.warmUp(); err != nil {
		cp.env.close()
		return nil, err
	}
	return cp, nil
}

// windowBase offsets script indexes per window, so no window re-serves
// a script an earlier window cached.
func windowBase(win int) int { return win << 24 }

func (cp *coldPages) run(d time.Duration, tr *tracer) (*window, error) {
	e := cp.env
	win := e.nextWindow(tr)
	defer e.slot.Store(nil)
	before := e.snapshot()
	w := &window{}
	pw := &proxyWindow{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	url := e.nodes[0].srv.url
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tally{}
			// Client c serves scripts c, c+2, c+4, ... of the window:
			// every request is a distinct script, so every one misses.
			for k := 0; time.Now().Before(deadline); k++ {
				idx := windowBase(win) + k*len(e.clients) + c
				t.attempted++
				t0 := time.Now()
				body, status, err := e.clients[c].get(tr, url+scriptPath("cold", idx), scriptID(e.g.seed, "cold", idx))
				el := time.Since(t0)
				if err != nil || status != http.StatusOK {
					t.failed++
					continue
				}
				t.ops++
				t.lat = append(t.lat, ms(el))
				t.served = append(t.served, servedScript{stream: "cold", idx: idx, sum: sha256.Sum256(body)})
			}
			mu.Lock()
			w.add(t)
			pw.served = append(pw.served, t.served...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	pw.delta = e.snapshot().sub(before)
	pw.scripts = cp.sample(pw.served, 64, false)
	pw.warm = [][][]byte{cp.sample(pw.served, 32, true)}
	w.state = pw
	return w, nil
}

// sample regenerates n served scripts: the first n, or the last n
// (still resident in the cache).
func (cp *coldPages) sample(served []servedScript, n int, last bool) [][]byte {
	n = min(n, len(served))
	pick := served[:n]
	if last {
		pick = served[len(served)-n:]
	}
	out := make([][]byte, 0, n)
	for _, s := range pick {
		out = append(out, cp.env.g.script(s.stream, s.idx, cp.env.org.sizes[s.stream]))
	}
	return out
}

func (cp *coldPages) verify(w *window) error { return cp.env.verifyServed(w) }

func (cp *coldPages) layers(w *window, m metrics) error { return cp.env.layers(w, m) }

func (cp *coldPages) close() { cp.env.close() }

// ---- interactive-under-batch -----------------------------------------

// The interactive-under-batch load: Poisson interactive GETs at
// iaRate per second on one connection, and on the other a prewarm POST
// of batchItems large scripts every batchEvery. Two batch rewrites plus
// one interactive rewrite stay under the default admission bound of
// four, so nothing is refused while batch stages still hold workers
// that interactive work must wait for.
const (
	iaRate     = 100.0
	batchEvery = 100 * time.Millisecond
	batchItems = 2
)

type interactiveUnderBatch struct {
	*coldPages
}

func setupInteractiveUnderBatch(seed int64, traced bool) (workload, error) {
	g, err := newGenerator(seed)
	if err != nil {
		return nil, err
	}
	cp := &coldPages{}
	cp.env, err = newProxyEnv(g, map[string]sizeRange{"ia": interactiveSizes, "batch": batchSizes}, warmPool(g, interactiveSizes), 1, 2, traced)
	if err != nil {
		return nil, err
	}
	if err := cp.env.warmUp(); err != nil {
		cp.env.close()
		return nil, err
	}
	return &interactiveUnderBatch{cp}, nil
}

func (ia *interactiveUnderBatch) run(d time.Duration, tr *tracer) (*window, error) {
	e := ia.env
	win := e.nextWindow(tr)
	defer e.slot.Store(nil)
	before := e.snapshot()
	w := &window{}
	pw := &proxyWindow{}
	url := e.nodes[0].srv.url
	plan := arrivals(e.g.seed, "ia-arrivals-"+strconv.Itoa(win), iaRate, d)
	inter, batch := &tally{}, &tally{}
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(2)
	go func() { // interactive: open loop, timed from each due time
		defer wg.Done()
		for k, at := range plan {
			due := start.Add(at)
			time.Sleep(time.Until(due))
			inter.lag = append(inter.lag, ms(time.Since(due)))
			idx := windowBase(win) + k
			inter.attempted++
			body, status, err := e.clients[0].get(tr, url+scriptPath("ia", idx), scriptID(e.g.seed, "ia", idx))
			if err != nil || status != http.StatusOK {
				inter.failed++
				continue
			}
			inter.ops++
			inter.lat = append(inter.lat, ms(time.Since(due)))
			inter.served = append(inter.served, servedScript{stream: "ia", idx: idx, sum: sha256.Sum256(body)})
		}
	}()
	go func() { // batch: prewarm POSTs at a fixed pace
		defer wg.Done()
		for j := 0; time.Duration(j)*batchEvery < d; j++ {
			time.Sleep(time.Until(start.Add(time.Duration(j) * batchEvery)))
			var urls, ids []string
			for k := 0; k < batchItems; k++ {
				idx := windowBase(win) + j*batchItems + k
				urls = append(urls, scriptPath("batch", idx))
				ids = append(ids, scriptID(e.g.seed, "batch", idx))
			}
			batch.attempted += batchItems
			resp, err := e.clients[1].postPrewarm(tr, url, urls, ids...)
			if err != nil {
				batch.failed += batchItems
				continue
			}
			for k, it := range resp.Items {
				if it.Status != "ok" {
					batch.failed++
					continue
				}
				batch.ops++
				batch.served = append(batch.served, servedScript{stream: "batch", idx: windowBase(win) + j*batchItems + k, cached: true})
			}
		}
	}()
	wg.Wait()
	// Only interactive requests record latency and lag.
	w.add(inter)
	w.add(batch)
	pw.served = append(inter.served, batch.served...)
	pw.delta = e.snapshot().sub(before)
	pw.scripts = append(ia.sample(inter.served, 48, false), ia.sample(batch.served, 16, false)...)
	pw.warm = [][][]byte{ia.sample(inter.served, 32, true)}
	w.state = pw
	return w, nil
}
