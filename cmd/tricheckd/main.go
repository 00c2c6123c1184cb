// Command tricheckd serves the TriCheck toolflow as a long-running HTTP
// verification service: one shared engine (warm memo cache, pooled µhb
// evaluators, one C11 evaluation per test per request) behind a
// streaming NDJSON API.
//
// Usage:
//
//	tricheckd [-addr HOST:PORT] [-cache FILE] [-memo-cap N]
//	          [-max-inflight N] [-max-workers N] [-shutdown-grace D]
//	          [-pprof] [-trace-sample N]
//
// One tricheckd uses every core it is given: -max-workers sizes each
// sweep's farm, and GOMAXPROCS bounds the process.
//
// Endpoints:
//
//	POST /v1/verify  {"family":"mp","isa":"both","variant":"both"} →
//	                 NDJSON verdict records + terminal summary; every
//	                 record carries the request's trace ID
//	GET  /v1/traces  slowest retained spans (requests + sampled jobs)
//	GET  /v1/coverage the verification-coverage ledger
//	GET  /v1/memo/snapshot the whole memo cache as a snapshot
//	POST /v1/memo/load merge a snapshot (e.g. another node's
//	                 /v1/memo/snapshot) into the memo cache
//	GET  /metrics    every counter, as Prometheus text exposition
//	GET  /debug/pprof/*  runtime profiles (only with -pprof)
//	GET  /healthz    liveness
//
// On SIGINT/SIGTERM the server shuts down gracefully — in-flight
// streams finish — and, when -cache is set, flushes the memo cache
// snapshot so the next boot serves repeat sweeps with zero verifier
// executions.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tricheck/internal/obs"
	"tricheck/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address")
	cache := flag.String("cache", "", "memo-cache snapshot (JSON): loaded at boot, flushed on shutdown")
	maxInflight := flag.Int("max-inflight", 4, "maximum concurrently-sweeping requests (further requests queue)")
	maxWorkers := flag.Int("max-workers", 0, "per-request farm worker budget (0 = GOMAXPROCS)")
	memoCap := flag.Int("memo-cap", 0, "memo-cache LRU capacity in (test, stack) entries (0 = default, several full paper sweeps)")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "graceful-shutdown deadline for in-flight streams")
	enablePprof := flag.Bool("pprof", false, "mount /debug/pprof/ (exposes process internals; off by default)")
	traceSample := flag.Int("trace-sample", 16, "retain a span for 1-in-N verdict jobs (0 = requests only)")
	flag.Parse()

	obs.SetVerdictSampling(*traceSample)
	logger := log.New(os.Stderr, "tricheckd: ", log.LstdFlags)
	srv, err := server.New(server.Config{
		CachePath:    *cache,
		MaxInFlight:  *maxInflight,
		MaxWorkers:   *maxWorkers,
		MemoCapacity: *memoCap,
		EnablePprof:  *enablePprof,
		Log:          logger,
	})
	if err != nil {
		logger.Fatal(err)
	}

	// No WriteTimeout: verify streams are long-lived by design, and the
	// handler applies its own per-record write deadlines; the header
	// timeout covers slowloris-style stalls before a request starts.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s (max-inflight=%d, cache=%q)", *addr, *maxInflight, *cache)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Printf("signal received, shutting down")
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v (closing)", err)
		httpSrv.Close()
	}
	if err := srv.SaveSnapshot(); err != nil {
		logger.Fatalf("flushing cache: %v", err)
	}
	logger.Printf("bye")
}
