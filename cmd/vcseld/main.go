// Command vcseld is the warm thermal-analysis daemon: it keeps assembled
// thermal models and superposition bases alive across requests and
// answers JSON design queries — gradients, feasibility, heater optima,
// SNR scenarios, thermal-map slices and paginated sweep grids. It also
// serves as the shard worker behind `dse -shards`, and runs long
// transient (warm-up) simulations as asynchronous jobs with periodic
// checkpoints that survive daemon restarts.
//
// Usage:
//
//	vcseld [-addr :8080] [-res fast] [-workers 0] [-warm]
//	       [-admit-rate 0] [-admit-burst 0]
//	       [-job-dir /var/lib/vcseld/jobs] [-job-checkpoint-every 25]
//	       [-job-ttl 0] [-coordinator http://ctl:9090] [-advertise host:port]
//	       [-log-level info] [-log-format text]
//
// A superposition query evaluates inline on its request's goroutine in
// a few microseconds; every query is one evaluation. With -admit-rate
// set, cheap superposition queries pass an O(1) atomic server-wide
// admission check; shed queries get HTTP 429 with a Retry-After header.
// Every request's spans are recorded into the /debug/requests ring.
// The daemon serves one spec, the paper's system at -res, and its model
// keeps at most thermal.MaxBases (8) bases warm: a new activity shape
// beyond that evicts the least-recently-used one (never the uniform
// basis) instead of being refused.
//
// Endpoints (all JSON unless noted):
//
//	GET  /healthz             liveness + warm-state statistics + job counts
//	GET  /metrics             Prometheus text-format metrics (latency histograms included)
//	GET  /debug/requests      recent request traces with per-phase spans
//	GET  /v1/specs            the served spec's resolution and solver (one entry)
//	POST /v1/gradient         superposition gradient query
//	POST /v1/feasibility      same body, 1 °C constraint verdict
//	POST /v1/heater/optimal   golden-section heater optimisation
//	POST /v1/snr              worst-case SNR for a placement case
//	POST /v1/map              lateral temperature slice of a stack layer
//	POST /v1/sweep/gradient   paginated Fig. 9-b laser × heater grid
//	POST /v1/sweep/avgtemp    paginated Fig. 9-a chip × laser grid
//	POST /v1/transient        submit an async transient job (202 + id)
//	GET  /v1/jobs             list transient jobs
//	GET  /v1/jobs/{id}        one job's progress / result
//	GET  /v1/jobs/{id}/stream NDJSON stream of job status snapshots
//
// With -coordinator set, the daemon announces itself to a vcselctl fleet
// coordinator once its listener is up (advertising -advertise, or the
// bound address when unset) and is then heartbeat-scraped, placed and —
// on failure — migrated from by the coordinator.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight requests (including sweep chunks) drain, and running
// transient jobs checkpoint their exact current step into -job-dir so the
// next daemon resumes them bit-identically.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vcselnoc/internal/fleet"
	"vcselnoc/internal/obs"
	"vcselnoc/internal/serve"
	"vcselnoc/internal/thermal"
)

// advertiseURL derives the URL a coordinator should dial this daemon on
// from the bound listen address, when -advertise is not given. A
// wildcard host (":8080", "0.0.0.0") is replaced with the loopback
// address — right for single-host fleets; multi-host fleets set
// -advertise explicitly.
func advertiseURL(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	res := flag.String("res", "fast", "mesh resolution: preview, coarse, fast or paper")
	workers := flag.Int("workers", 0, "parallel solver/sweep workers (0 = all CPUs)")
	admitRate := flag.Float64("admit-rate", 0, "server-wide admission rate for cheap queries (queries/s; 0 = unlimited, shed gets HTTP 429 + Retry-After)")
	admitBurst := flag.Int("admit-burst", 0, "server-wide admission burst tolerance (0 = default)")
	warm := flag.Bool("warm", false, "build the model and uniform basis before accepting traffic")
	shutdownTimeout := flag.Duration("shutdown-timeout", serve.DefaultShutdownTimeout, "grace period for in-flight requests on shutdown")
	jobDir := flag.String("job-dir", "", "directory for transient-job checkpoints; jobs resume across restarts (empty keeps jobs in memory)")
	jobEvery := flag.Int("job-checkpoint-every", serve.DefaultJobCheckpointEvery, "default transient-job checkpoint cadence in steps")
	jobTTL := flag.Duration("job-ttl", 0, "garbage-collect finished transient jobs older than this (0 keeps them forever)")
	coordinator := flag.String("coordinator", "", "vcselctl coordinator URL to announce this worker to")
	advertise := flag.String("advertise", "", "URL the coordinator should reach this worker on (default derived from the bound address)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn or error (debug logs every query with its trace id)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("vcseld: ")

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	spec, err := thermal.PaperSpec()
	if err != nil {
		log.Fatal(err)
	}
	if spec.Res, err = thermal.ResolutionByName(*res); err != nil {
		log.Fatal(err)
	}
	spec.Workers = *workers

	srv, err := serve.New(serve.Config{
		Spec:               spec,
		AdmitRate:          *admitRate,
		AdmitBurst:         *admitBurst,
		JobDir:             *jobDir,
		JobCheckpointEvery: *jobEvery,
		JobTTL:             *jobTTL,
		Logger:             logger,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *warm {
		logger.Info("warming", "res", *res)
		start := time.Now()
		if err := srv.Warm(); err != nil {
			log.Fatal(err)
		}
		logger.Info("warm", "duration_s", time.Since(start).Seconds())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// On the shutdown signal, stop background transient jobs concurrently
	// with the HTTP drain: each running job checkpoints its exact current
	// step into -job-dir (so the next daemon resumes it bit-identically)
	// and attached /v1/jobs/{id}/stream clients are released — otherwise
	// an open stream would hold the graceful drain for its full timeout.
	defer context.AfterFunc(ctx, srv.Close)()
	err = serve.ListenAndRun(ctx, *addr, srv, *shutdownTimeout, func(a net.Addr) {
		logger.Info("listening", "addr", a.String(), "res", *res)
		if *coordinator != "" {
			self := *advertise
			if self == "" {
				self = advertiseURL(a)
			}
			go func() {
				if err := fleet.Announce(ctx, *coordinator, self, *jobDir); err != nil && ctx.Err() == nil {
					logger.Warn("fleet announce failed", "coordinator", *coordinator, "err", err)
				} else if ctx.Err() == nil {
					logger.Info("announced", "self", self, "coordinator", *coordinator)
				}
			}()
		}
	})
	// Idempotent: covers exits where the listener died before any signal.
	srv.Close()
	if err != nil {
		log.Fatal(err)
	}
	logger.Info("shut down cleanly")
}
