// Command vcselctl is the fleet coordinator for a pool of vcseld
// workers. It keeps a registry of workers fresh with periodic heartbeat
// scrapes of each worker's /healthz, places sweep chunks
// and transient jobs on the least-loaded alive workers, and treats
// failure as a first-class state: a worker that misses consecutive
// heartbeats is first held out of new placements (suspect), then
// evicted (dead) — at which point its transient jobs migrate to
// survivors from their last persisted checkpoint and resume
// bit-identically. Dead workers keep being scraped, so a flapping
// worker rejoins the placement pool on its first good heartbeat.
//
// Usage:
//
//	vcselctl [-addr :9090] [-workers http://h1:8080,http://h2:8080]
//	         [-heartbeat 2s] [-suspect-after 2] [-evict-after 4]
//	         [-job-poll 0] [-chunk-attempts 3]
//	         [-log-level info] [-log-format text]
//
// Workers may also self-register at runtime: start vcseld with
// -coordinator pointing here and it announces itself once its listener
// is up, carrying its -job-dir so the coordinator can recover
// checkpoints from disk if that worker dies.
//
// Endpoints (all JSON):
//
//	GET  /healthz             fleet liveness + per-worker state
//	GET  /v1/fleet            same, plus tracked jobs and migration count
//	POST /v1/fleet/register   worker self-registration
//	GET  /v1/specs            the spec alive workers agree on (503 if they disagree)
//	POST /v1/sweep/gradient   sweep window, sub-scattered across the fleet
//	POST /v1/sweep/avgtemp    same for the chip × laser grid
//	POST /v1/transient        place a transient job (202 + id)
//	GET  /v1/jobs             paginated tracked-job list
//	GET  /v1/jobs/{id}        one tracked job's progress / result
//
// The sweep and job endpoints match the vcseld worker API shape, so
// `dse -coordinator` (or any ShardClient) can treat the coordinator as
// a single very reliable worker.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"vcselnoc/internal/fleet"
	"vcselnoc/internal/obs"
	"vcselnoc/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	workers := flag.String("workers", "", "comma-separated vcseld worker base URLs to register at startup")
	heartbeat := flag.Duration("heartbeat", fleet.DefaultHeartbeatEvery, "worker heartbeat-scrape cadence")
	suspectAfter := flag.Int("suspect-after", fleet.DefaultSuspectAfter, "consecutive missed heartbeats before a worker is held out of placement")
	evictAfter := flag.Int("evict-after", fleet.DefaultEvictAfter, "consecutive missed heartbeats before a worker's jobs migrate")
	jobPoll := flag.Duration("job-poll", 0, "job status/migration poll cadence (0 follows -heartbeat)")
	chunkAttempts := flag.Int("chunk-attempts", 0, "placement attempts per sweep chunk before the request fails (0 = default)")
	shutdownTimeout := flag.Duration("shutdown-timeout", serve.DefaultShutdownTimeout, "grace period for in-flight requests on shutdown")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("vcselctl: ")

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	cfg := fleet.Config{
		HeartbeatEvery: *heartbeat,
		SuspectAfter:   *suspectAfter,
		EvictAfter:     *evictAfter,
		JobPollEvery:   *jobPoll,
		ChunkAttempts:  *chunkAttempts,
		Logger:         logger,
	}
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				cfg.Workers = append(cfg.Workers, w)
			}
		}
	}
	c, err := fleet.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	defer context.AfterFunc(ctx, c.Close)()
	err = serve.ListenAndRun(ctx, *addr, c, *shutdownTimeout, func(a net.Addr) {
		logger.Info("coordinating", "workers", len(cfg.Workers), "addr", a.String(),
			"heartbeat", heartbeat.String(), "suspect_after", *suspectAfter, "evict_after", *evictAfter)
	})
	c.Close()
	if err != nil {
		log.Fatal(err)
	}
	logger.Info("shut down cleanly")
}
