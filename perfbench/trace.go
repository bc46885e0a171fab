package main

// Tracing from the benchmark's own side of the program's public seams:
// the client request, a wrapper around the handler each node serves,
// the origin transport, the cache's RewriteFunc and the peer client.
// Spans stay in memory and are analysed when the window ends. A nil
// *tracer records nothing; an end-to-end run installs no wrapper at all.

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/instrument"
	"repro/internal/proxy"
	"repro/internal/sched"
)

// Span names.
const (
	spanClient  = "client"  // one client operation, the root of its request
	spanHandler = "handler" // a node's HTTP handler serving one request
	spanOrigin  = "origin"  // origin round trip up to body close
	spanRewrite = "rewrite" // the cache's RewriteFunc (admission + stages)
	spanPeer    = "peer"    // peer forward round trip up to body close
)

// span is one timed interval. parent is 0 for a request's root, and
// for spans whose parent is found by containment (rewrite spans, which
// the program calls without a context).
type span struct {
	id, parent, req int64
	name            string
	start, end      time.Duration // since the tracer's epoch
	// wait and class are set on rewrite spans: the admission queue wait
	// the pipeline reported, and the latency class admitted at.
	wait  time.Duration
	class sched.Class
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer collects spans. Its zero value is unusable; nil disables it.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// scripts maps a script's header id to the client request that
	// asked for it, so rewrite spans find their request.
	scripts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), scripts: make(map[string]int64)}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns it; finish records it.
func (t *tracer) begin(name string, req, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{id: t.nextID.Add(1), parent: parent, req: req, name: name, start: t.now()}
}

func (t *tracer) finish(s span) {
	if t == nil {
		return
	}
	s.end = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newRequest allocates a request id and names the scripts it carries.
func (t *tracer) newRequest(scripts ...string) int64 {
	if t == nil {
		return 0
	}
	req := t.nextID.Add(1)
	t.mu.Lock()
	for _, s := range scripts {
		t.scripts[s] = req
	}
	t.mu.Unlock()
	return req
}

func (t *tracer) requestFor(script string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scripts[script]
}

// collected returns the recorded spans.
func (t *tracer) collected() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceHeader carries "request.parentSpan" across HTTP hops.
const traceHeader = "X-Perfbench-Trace"

type ctxKey struct{}

// traceRef is the span a context's outgoing calls belong to.
type traceRef struct{ req, span int64 }

func refFrom(ctx context.Context) (traceRef, bool) {
	r, ok := ctx.Value(ctxKey{}).(traceRef)
	return r, ok
}

func (r traceRef) header() string {
	return strconv.FormatInt(r.req, 10) + "." + strconv.FormatInt(r.span, 10)
}

func parseRef(h string) (traceRef, bool) {
	a, b, ok := strings.Cut(h, ".")
	if !ok {
		return traceRef{}, false
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	sp, err2 := strconv.ParseInt(b, 10, 64)
	return traceRef{req, sp}, err1 == nil && err2 == nil
}

// tracerSlot holds the tracer of the window in progress (nil when the
// window is untraced). The wrappers below are installed once, at set-up
// of a traced run, and read the slot per call.
type tracerSlot struct{ atomic.Pointer[tracer] }

// tracedHandler wraps a node's handler: a request carrying the trace
// header gets a handler span, and the span rides the request context
// into the program's outgoing origin and peer calls.
type tracedHandler struct {
	next http.Handler
	slot *tracerSlot
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.slot.Load()
	ref, ok := parseRef(r.Header.Get(traceHeader))
	if tr == nil || !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	s := tr.begin(spanHandler, ref.req, ref.span)
	ctx := context.WithValue(r.Context(), ctxKey{}, traceRef{ref.req, s.id})
	h.next.ServeHTTP(w, r.WithContext(ctx))
	tr.finish(s)
}

// tracedTransport times round trips made under a traced context, from
// the call until the response body is read to its end or closed,
// whichever comes first (the proxy defers its Close past the rewrite).
// Outgoing requests carry the trace header so the receiving node's
// handler span nests here.
type tracedTransport struct {
	base  http.RoundTripper
	slot  *tracerSlot
	name  string
	bytes *atomic.Int64 // response bytes read under a span, when non-nil
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.slot.Load()
	ref, ok := refFrom(req.Context())
	if tr == nil || !ok {
		return t.base.RoundTrip(req)
	}
	s := tr.begin(t.name, ref.req, ref.span)
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, traceRef{ref.req, s.id}.header())
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.finish(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: tr, s: s, bytes: t.bytes}
	return resp, nil
}

// spanBody ends its span at the body's end or close.
type spanBody struct {
	io.ReadCloser
	tr    *tracer
	s     span
	bytes *atomic.Int64
	once  sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.bytes != nil {
		b.bytes.Add(int64(n))
	}
	if err != nil {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.end()
	return err
}

func (b *spanBody) end() { b.once.Do(func() { b.tr.finish(b.s) }) }

// tracedRewrite wraps the pipeline's RewriteFor as the cache's
// RewriteFunc. The program passes no context here, so the span is tied
// to its request through the script's header line and nested by
// containment when the trace is analysed.
func tracedRewrite(slot *tracerSlot, pl *proxy.Pipeline) proxy.RewriteFunc {
	return func(src []byte, mode instrument.Mode, class sched.Class, started func(func())) ([]byte, time.Duration, error) {
		tr := slot.Load()
		if tr == nil {
			return pl.RewriteFor(src, mode, class, started)
		}
		req := tr.requestFor(headerID(src))
		if req == 0 {
			return pl.RewriteFor(src, mode, class, started)
		}
		s := tr.begin(spanRewrite, req, 0)
		body, wait, err := pl.RewriteFor(src, mode, class, started)
		s.wait, s.class = wait, class
		tr.finish(s)
		return body, wait, err
	}
}

// nest resolves every span's parent: spans without one (other than a
// request's client span) take the innermost span of their request whose
// interval contains theirs.
func nest(spans []span) []span {
	byReq := make(map[int64][]int)
	for i, s := range spans {
		byReq[s.req] = append(byReq[s.req], i)
	}
	out := append([]span(nil), spans...)
	for i, s := range out {
		if s.parent != 0 || s.name == spanClient || s.req == 0 {
			continue
		}
		best := -1
		for _, j := range byReq[s.req] {
			c := out[j]
			if j == i || c.start > s.start || c.end < s.end || c.name == spanRewrite {
				continue
			}
			if best < 0 || c.start >= out[best].start {
				best = j
			}
		}
		if best >= 0 {
			out[i].parent = out[best].id
		}
	}
	return out
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}
