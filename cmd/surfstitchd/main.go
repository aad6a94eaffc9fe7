// Command surfstitchd serves synthesis and logical-error-rate estimation as
// an HTTP daemon: asynchronous jobs over a bounded worker pool and a
// content-addressed job store. A done job answers identical submissions,
// and with -store-dir the store persists, so interrupted curve sweeps resume
// and done results keep answering after a restart.
//
//	surfstitchd -addr 127.0.0.1:8080 -store-dir /var/lib/surfstitchd
//
// The API lives under /v1 (see DESIGN.md, "Serving"); /metrics,
// /debug/pprof and /healthz / /readyz ride on the same listener.
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

	"surfstitch/internal/obs"
	"surfstitch/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	queueSize := flag.Int("queue", 64, "job queue capacity; a full queue answers 429")
	workers := flag.Int("workers", 2, "concurrently running jobs")
	mcWorkers := flag.Int("mc-workers", 0, "Monte-Carlo workers per job (0 = all cores)")
	storeDir := flag.String("store-dir", "", "optional job store directory; enables resume and cached results after restart")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for running jobs before checkpointing them")
	manifestOut := flag.String("manifest-out", "", "write a daemon run manifest (JSON) on exit")
	flag.Parse()

	if err := run(daemonConfig{
		addr: *addr, queueSize: *queueSize, workers: *workers,
		mcWorkers: *mcWorkers, storeDir: *storeDir,
		jobTimeout: *jobTimeout, drainTimeout: *drainTimeout,
		manifestOut: *manifestOut,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "surfstitchd:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	addr         string
	queueSize    int
	workers      int
	mcWorkers    int
	storeDir     string
	jobTimeout   time.Duration
	drainTimeout time.Duration
	manifestOut  string
}

func run(dc daemonConfig) error {
	reg := obs.NewRegistry()
	manifest := obs.NewManifest("surfstitchd", 0, map[string]any{
		"addr": dc.addr, "queue": dc.queueSize, "workers": dc.workers,
		"mc_workers": dc.mcWorkers, "store_dir": dc.storeDir,
		"job_timeout": dc.jobTimeout.String(), "drain_timeout": dc.drainTimeout.String(),
	})

	srv, err := server.New(server.Config{
		QueueSize: dc.queueSize, Workers: dc.workers, MCWorkers: dc.mcWorkers,
		StoreDir: dc.storeDir, JobTimeout: dc.jobTimeout,
		Registry: reg,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", dc.addr)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	// The banner goes to stderr so harnesses (serversmoke, scripts) can
	// learn the bound port when -addr was :0.
	fmt.Fprintf(os.Stderr, "surfstitchd: listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var runErr error
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "surfstitchd: signal received, draining")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			runErr = err
		}
	}
	stop()

	// Drain jobs first — submissions already answer 503 — then close the
	// listener. Jobs still running at the deadline are checkpointed and
	// re-persisted as queued for the next boot.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), dc.drainTimeout)
	defer cancelDrain()
	if err := srv.Shutdown(drainCtx); err != nil && runErr == nil {
		runErr = err
	}
	interrupted := drainCtx.Err() != nil

	closeCtx, cancelClose := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelClose()
	if err := httpSrv.Shutdown(closeCtx); err != nil && runErr == nil {
		runErr = err
	}

	if err := manifest.Seal(reg, dc.manifestOut, interrupted); err != nil && runErr == nil {
		runErr = err
	}
	fmt.Fprintln(os.Stderr, "surfstitchd: stopped")
	return runErr
}
