// Command platoond serves deterministic platoon-security simulations
// over HTTP/JSON with digest-keyed result caching.
//
// Every run is a pure function of (normalized request, seed, schema
// version); the server computes the canonical SHA-256 digest of that
// triple and answers repeats from a content-addressed cache — an
// in-memory LRU with single-flight deduplication, optionally spilling
// evicted artifacts to disk — so N identical requests cost exactly one
// simulation and everyone receives byte-identical results. Admission
// control (bounded in-flight pool, bounded wait queue, per-tenant
// token-bucket quotas) protects the process; /metrics exposes the
// cache, queue and latency telemetry.
//
// Usage:
//
//	platoond [flags]
//
//	-addr HOST:PORT  listen address (default 127.0.0.1:8099)
//	-cache-entries N in-memory cache entry bound (default 512)
//	-cache-mb N      in-memory cache byte bound in MiB (default 256)
//	-spill DIR       spill evicted artifacts to DIR and consult it on
//	                 misses (default: disabled)
//	-inflight N      concurrently executing simulations (default 4)
//	-queue N         requests allowed to wait for a slot before 429
//	                 saturated (default 64)
//	-quota-rate R    per-tenant requests/sec refill (0 = quotas off)
//	-quota-burst B   per-tenant bucket size (default 2*rate, min 1)
//	-world-shards N  spatial kernel shards for world runs (default 1;
//	                 execution knob, never part of the digest)
//	-world-workers N parallel shard workers for world runs (default 1)
//	-timeline-interval D  metrics timeline sampling period (default 10s;
//	                 0 disables GET /v1/timeline)
//	-timeline-capacity N  timeline ring capacity in samples (default 720)
//	-traces N        request-trace ring capacity (default 256; 0
//	                 disables GET /v1/traces)
//	-trace-sample N  keep every Nth run request's trace (default 1)
//	-pprof           expose GET /debug/pprof/{profile} (off by default)
//	-slo-latency-ms F request-latency objective /v1/slo reports
//	                 attainment against (default 250)
//
// Examples:
//
//	platoond -addr :8099
//	platoond -spill /var/cache/platoond -quota-rate 50
//	platoond -timeline-interval 5s -traces 512 -pprof
//	curl -s localhost:8099/v1/runs -d '{"attack":"jamming"}'
//	curl -s localhost:8099/v1/slo
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"platoonsec/internal/service"
)

// Connection timeouts: a client has readHeaderTimeout to send its
// request header and readTimeout to send the whole request (bodies are
// at most 1 MiB of JSON), and an idle keep-alive connection is closed
// after idleTimeout, so a stalled client cannot hold a connection and
// its goroutine forever. There is no write timeout: a miss may run a
// world simulation for longer than any bound that suits a read. They
// are variables so the slow-client test can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "platoond:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until SIGINT/SIGTERM. When ready is
// non-nil it receives the bound listen address once the socket is open
// (tests use it to serve on port 0).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("platoond", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8099", "listen address")
	cacheEntries := fs.Int("cache-entries", 512, "in-memory cache entry bound")
	cacheMB := fs.Int64("cache-mb", 256, "in-memory cache byte bound, MiB")
	spill := fs.String("spill", "", "disk spill directory (empty = disabled)")
	inflight := fs.Int("inflight", 4, "concurrently executing simulations")
	queue := fs.Int("queue", 64, "bounded wait queue before 429 saturated")
	quotaRate := fs.Float64("quota-rate", 0, "per-tenant requests/sec (0 = quotas off)")
	quotaBurst := fs.Float64("quota-burst", 0, "per-tenant bucket size (0 = 2*rate)")
	worldShards := fs.Int("world-shards", 1, "spatial kernel shards for world runs")
	worldWorkers := fs.Int("world-workers", 1, "parallel shard workers for world runs")
	tlInterval := fs.Duration("timeline-interval", 10*time.Second, "metrics timeline sampling period (0 = disabled)")
	tlCapacity := fs.Int("timeline-capacity", 0, "timeline ring capacity in samples (0 = default 720)")
	traces := fs.Int("traces", 256, "request-trace ring capacity (0 = disabled)")
	traceSample := fs.Int("trace-sample", 1, "keep every Nth run request's trace")
	pprofOn := fs.Bool("pprof", false, "expose GET /debug/pprof/{profile}")
	sloLatencyMS := fs.Float64("slo-latency-ms", 250, "request-latency objective for /v1/slo, ms")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The flag surface uses 0 for "off"; the library uses negatives
	// (0 picks its defaults).
	if *tlInterval == 0 {
		*tlInterval = -1
	}
	if *traces == 0 {
		*traces = -1
	}
	srv, err := service.NewServer(service.Config{
		Now:                   time.Now,
		CacheEntries:          *cacheEntries,
		CacheBytes:            *cacheMB << 20,
		SpillDir:              *spill,
		MaxInflight:           *inflight,
		MaxQueue:              *queue,
		QuotaRate:             *quotaRate,
		QuotaBurst:            *quotaBurst,
		WorldShards:           *worldShards,
		WorldWorkers:          *worldWorkers,
		TimelineInterval:      *tlInterval,
		TimelineCapacity:      *tlCapacity,
		TraceCapacity:         *traces,
		TraceSample:           *traceSample,
		Pprof:                 *pprofOn,
		SLOLatencyObjectiveMS: *sloLatencyMS,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	// Serve until a termination signal, then drain in-flight requests.
	// The handler is installed before the address is announced, so a
	// signal sent once the server is ready always reaches it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintln(os.Stderr, "platoond: serving on", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintln(os.Stderr, "platoond: shutting down on", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
