// Command rmbd serves RMB simulations as jobs over HTTP: submit a
// network config plus workload (and optionally a fault plan) as JSON,
// poll status, stream the JSONL telemetry trace, and fetch the results
// when the run completes. Concurrent jobs multiplex over a bounded
// worker pool with a bounded admission queue; when the queue is full,
// submissions bounce with 429 + Retry-After instead of piling up.
//
// On SIGINT/SIGTERM the daemon drains gracefully: the listener stops,
// every running job freezes at its next tick boundary, and (with
// -checkpoint-dir) each frozen job is written to <id>.ckpt — a later
// rmbd started with the same directory resumes them bit-identically.
//
// Serving throughput comes from three layers (see DESIGN.md §15):
// finished networks park in a per-shape pool and are re-armed in place
// by Network.Reset instead of rebuilt; completed runs are memoized in a
// content-addressed cache (the simulator is deterministic, so a
// resubmitted spec is served instantly, bit-identical, with
// "cached":true in its status); and traces stream through a pooled
// zero-allocation JSONL encoder.
//
// The daemon is instrumented end to end (see DESIGN.md §16): every job
// status carries a phase-timing decomposition (admission, queue wait,
// network acquisition, run, trace seal), GET /metrics exposes latency
// histograms (rmbd_job_queue_seconds, rmbd_job_run_seconds,
// rmbd_http_request_seconds{route,code}) next to the pool/cache
// counters and runtime gauges, /debug/pprof/ serves the standard
// profiles, and all logging flows through log/slog (-log-level,
// -log-format) with per-job attributes and slow-job warnings
// (-slow-job). cmd/rmbdstat summarizes a live daemon from these
// endpoints. Observation never changes a result: a 32-seed
// differential in internal/service proves results, traces and
// checkpoints byte-identical with observability on or off (-no-obs).
//
// Usage examples:
//
//	rmbd -addr :8080
//	rmbd -addr :8080 -workers 4 -queue 32
//	rmbd -addr :8080 -checkpoint-dir /var/lib/rmbd
//	rmbd -addr :8080 -pool-per-shape 8 -cache-bytes 134217728
//	rmbd -addr :8080 -pool-per-shape -1 -cache-bytes -1   # disable both
//	rmbd -addr :8080 -log-format json -log-level debug -slow-job 30s
//
//	curl -s localhost:8080/api/v1/jobs -d '{"config":{"Nodes":16,"Buses":4},"workload":{"rate":0.02,"measure":20000},"trace":true}'
//	curl -s localhost:8080/api/v1/jobs/j1
//	curl -s localhost:8080/api/v1/jobs/j1/trace
//	curl -s localhost:8080/api/v1/jobs/j1/result
//	curl -s -X POST localhost:8080/api/v1/jobs/j1/checkpoint > j1.ckpt
//	curl -s localhost:8080/api/v1/resume --data-binary @j1.ckpt   # binary: not -d
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rmb/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker pool size")
	queue := flag.Int("queue", 16, "admission queue depth (full queue bounces submissions with 429)")
	poolPerShape := flag.Int("pool-per-shape", 0, "parked networks kept per (nodes,buses) shape for Reset reuse; 0 = workers, -1 disables pooling")
	cacheBytes := flag.Int64("cache-bytes", 0, "byte budget for the deterministic run cache; 0 = 64 MiB, -1 disables caching")
	ckptDir := flag.String("checkpoint-dir", "", "directory for drain checkpoints; *.ckpt files found at startup are resumed")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain after SIGTERM")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	slowJob := flag.Duration("slow-job", 10*time.Second, "run duration above which a job logs a slow-job warning; 0 disables")
	noObs := flag.Bool("no-obs", false, "disable observability (phase timings and latency histograms)")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmbd: %v\n", err)
		os.Exit(2)
	}

	opts := service.Options{
		Workers:      *workers,
		QueueDepth:   *queue,
		PoolPerShape: *poolPerShape,
		CacheBytes:   *cacheBytes,
		Logger:       logger,
		SlowJob:      *slowJob,
		DisableObs:   *noObs,
	}
	if err := run(*addr, opts, *ckptDir, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "rmbd: %v\n", err)
		os.Exit(1)
	}
}

// buildLogger maps the -log-level/-log-format flags to a slog.Logger on
// stderr (stdout stays free for tooling that pipes the daemon).
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	ho := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

func run(addr string, opts service.Options, ckptDir string, drainTimeout time.Duration) error {
	m, err := service.NewManagerOpts(opts)
	if err != nil {
		return err
	}

	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		n, err := resumeFromDir(m, ckptDir)
		if err != nil {
			return err
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "rmbd: resumed %d checkpointed job(s) from %s\n", n, ckptDir)
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		m.Close()
		return err
	}
	srv := &http.Server{Handler: service.NewAPI(m).Handler()}
	errCh := make(chan error, 1)
	fmt.Fprintf(os.Stderr, "rmbd: listening on %s (%d workers, queue depth %d)\n", ln.Addr(), opts.Workers, opts.QueueDepth)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		m.Close()
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "rmbd: %v: draining (timeout %s)\n", sig, drainTimeout)
	}

	// Drain order matters: stop admitting HTTP traffic first, then freeze
	// the jobs, then persist. A second signal aborts the wait.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	go func() {
		<-sigCh
		cancel()
	}()

	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "rmbd: http shutdown: %v\n", err)
	}

	if ckptDir == "" {
		// Nowhere to persist: cancel outright rather than freezing state
		// that would be dropped on the floor.
		m.Close()
		return nil
	}

	cks, err := m.Drain(ctx)
	if err != nil {
		m.Close()
		return fmt.Errorf("drain: %w", err)
	}
	for i := range cks {
		if err := writeCheckpointFile(ckptDir, &cks[i]); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "rmbd: drained; %d job(s) checkpointed to %s\n", len(cks), ckptDir)
	return nil
}

// resumeFromDir admits every *.ckpt in dir and removes the files it
// consumed (a crash between resume and removal re-resumes the same
// checkpoint, which is safe: job IDs collide into fresh ones and the
// run is deterministic either way). A checkpoint in a format version
// this build does not read — every JSON file an older rmbd drained — is
// renamed to <id>.ckpt.unsupported and skipped; any other damage aborts
// the start.
func resumeFromDir(m *service.Manager, dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return resumed, err
		}
		ck, err := service.DecodeCheckpoint(data)
		if errors.Is(err, service.ErrUnsupportedVersion) {
			fmt.Fprintf(os.Stderr, "rmbd: %s: %v; setting it aside as %s.unsupported\n", path, err, filepath.Base(path))
			if err := os.Rename(path, path+".unsupported"); err != nil {
				return resumed, err
			}
			continue
		}
		if err != nil {
			return resumed, fmt.Errorf("%s: %w", path, err)
		}
		if _, err := m.Resume(*ck); err != nil {
			if errors.Is(err, service.ErrQueueFull) {
				// Leave the file for the next start rather than dropping it.
				fmt.Fprintf(os.Stderr, "rmbd: queue full, leaving %s for next start\n", path)
				continue
			}
			return resumed, fmt.Errorf("%s: %w", path, err)
		}
		if err := os.Remove(path); err != nil {
			return resumed, err
		}
		resumed++
	}
	return resumed, nil
}

// writeCheckpointFile persists one drained job as <id>.ckpt. It writes a
// temp file, fsyncs it, renames it into place and fsyncs the directory,
// so after a crash the checkpoint is either absent or complete — never
// torn or empty.
func writeCheckpointFile(dir string, ck *service.Checkpoint) error {
	data, err := service.EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	dst := filepath.Join(dir, ck.ID+".ckpt")
	tmp := dst + ".tmp"
	err = writeSynced(tmp, data)
	if err == nil {
		err = os.Rename(tmp, dst)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: the write or rename error is the one to report
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeSynced writes data to a new file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
