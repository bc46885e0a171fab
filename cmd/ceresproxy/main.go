// Command ceresproxy runs the JS-CERES instrumentation proxy of Fig. 5
// as a sharded, queued rewrite service: point a browser (or this
// repository's interpreter) at it, and every JavaScript response from
// the origin is rewritten with profiling instrumentation on the way
// through. Pages post results to /__ceres/results; the proxy saves
// human-readable reports. Rewrites are served from a content-addressed
// single-flight cache sharded -shards ways; misses run through the
// decode→parse→rewrite→encode pipeline, one queue job per rewrite, on
// -rewrite-workers scheduler workers with a -queue-depth admission
// bound (saturation is shed as 429 + Retry-After). POST a JSON batch to
// /__ceres/prewarm to warm the cache ahead of traffic; live counters
// are at /__ceres/stats.
//
// Usage:
//
//	ceresproxy -origin http://localhost:8000 -listen :8080 -mode loops \
//	    -reports ./ceres-reports -cache-bytes 67108864 -shards 8 \
//	    -rewrite-workers 4 -queue-depth 64 -refresh-ttl 0 \
//	    -batch-max-wait 500ms -stats
//
// Rewrites are classed: live page loads are interactive, prewarm and
// TTL refreshes are batch. Interactive admissions outrank batch ones,
// batch work is shed first at saturation, and -batch-max-wait drops
// batch jobs still queued past the deadline instead of running them
// stale.
//
// Cluster mode: pass -peers with the full fleet member list (including
// this node's own public URL, identified by -cluster-self) and the
// proxy joins a consistent-hash rewrite fleet. Each script source hashes
// to exactly one owner; non-owners forward rewrites over the peer
// protocol and fall back to a local rewrite if the owner is unreachable.
// Health probes eject dead peers from the ring and readmit them when
// they recover; -cluster-replicate-qps lets hot keys be served by
// non-owners above a per-key request rate. Prewarm batches POSTed to any
// node are routed to each source's owner, so one POST warms the fleet.
//
//	ceresproxy -listen :8080 -cluster-self http://host1:8080 \
//	    -peers http://host1:8080,http://host2:8080,http://host3:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/proxy"
)

// Server timeouts, fixed rather than flags. readHeaderTimeout bounds a
// client that opens a connection and trickles its request headers
// (slowloris), which would otherwise pin a connection forever;
// idleTimeout closes keep-alive connections a client has stopped
// using. Neither limits request bodies or responses, so large prewarm
// batches and slow script downloads are unaffected.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func main() {
	origin := flag.String("origin", "http://localhost:8000", "upstream web server")
	listen := flag.String("listen", ":8080", "proxy listen address")
	mode := flag.String("mode", "light", "instrumentation mode: light, loops")
	reports := flag.String("reports", "ceres-reports", "directory for result reports")
	cacheBytes := flag.Int64("cache-bytes", proxy.DefaultCacheBytes, "rewrite cache budget in bytes (0 disables caching)")
	shards := flag.Int("shards", proxy.DefaultShards, "cache shard count (independent lock domains)")
	workers := flag.Int("rewrite-workers", 0, "rewrite pipeline worker count (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max outstanding rewrites before requests are shed with 429 (0 = workers*2)")
	refreshTTL := flag.Duration("refresh-ttl", 0, "background-refresh hot cache entries nearing this age (0 disables)")
	batchMaxWait := flag.Duration("batch-max-wait", 0, "shed batch-class rewrites (prewarm, TTL refresh) still queued past this deadline (0 disables)")
	stats := flag.Bool("stats", true, "serve live counters at /__ceres/stats")
	peers := flag.String("peers", "", "comma-separated fleet member URLs including this node (empty = single-node)")
	clusterSelf := flag.String("cluster-self", "", "this node's own URL as it appears in -peers (required with -peers)")
	replicateQPS := flag.Float64("cluster-replicate-qps", 0, "per-key request rate above which non-owners serve a hot key locally (0 = off)")
	flag.Parse()

	m, err := instrument.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ceresproxy: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	cfg := proxy.ServeConfig{
		CacheBytes:   *cacheBytes,
		DisableCache: *cacheBytes == 0,
		Shards:       *shards,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		RefreshTTL:   *refreshTTL,
		BatchMaxWait: *batchMaxWait,
	}
	p, err := proxy.NewServing(*origin, m, *reports, cfg)
	if err != nil {
		log.Fatal(err)
	}
	p.StatsEndpoint = *stats

	var node *cluster.Node
	if *peers != "" {
		var members []string
		for _, m := range strings.Split(*peers, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		if *clusterSelf == "" {
			fmt.Fprintln(os.Stderr, "ceresproxy: -peers requires -cluster-self (this node's URL as listed in -peers)")
			os.Exit(2)
		}
		node, err = cluster.New(cluster.Config{
			Self:         *clusterSelf,
			Peers:        members,
			ReplicateQPS: *replicateQPS,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ceresproxy: %v\n", err)
			os.Exit(2)
		}
		p.Cluster = node
		node.Start()
		fmt.Printf("ceresproxy: cluster of %d members, self=%s, replicate-qps=%g\n",
			len(members), *clusterSelf, *replicateQPS)
	}

	fmt.Printf("ceresproxy: %s -> %s (mode=%s, reports=%s, cache=%dB x%d shards, workers=%d, queue-depth=%d, refresh-ttl=%s, batch-max-wait=%s, stats=%v)\n",
		*listen, *origin, m, *reports, *cacheBytes, *shards,
		p.Pipeline.Queue().Workers(), p.Pipeline.Queue().Depth(), formatTTL(*refreshTTL), formatTTL(*batchMaxWait), *stats)

	// Graceful shutdown: stop accepting, let in-flight requests finish,
	// then drain the pipeline workers (a bare defer would never run —
	// log.Fatal exits without running defers).
	srv := &http.Server{
		Addr:              *listen,
		Handler:           p,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("ceresproxy: shutdown: %v", err)
		}
		if node != nil {
			node.Close()
		}
		p.Close()
		close(idle)
	}()
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-idle
}

func formatTTL(d time.Duration) string {
	if d <= 0 {
		return "off"
	}
	return d.String()
}
