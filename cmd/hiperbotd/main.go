// Command hiperbotd serves HiPerBOt tuning sessions over HTTP — the
// ask/tell loop as a service, so cluster jobs and CI pipelines can
// ask "which configuration next?" over the network instead of
// linking the tuner in-process.
//
//	hiperbotd -addr :8080 -data ./hiperbotd-data
//
// Sessions are journaled to one JSONL file each under -data; killing
// and restarting the daemon resumes every session with its full
// history. SIGINT/SIGTERM drain in-flight requests and flush the
// journals before exiting. See the README's "Running as a service"
// section for curl examples of every endpoint.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/server"

	// Engines register themselves with the core registry; the blank
	// import decides which strategy names this daemon accepts at
	// session create ("ranking", "proposal", "random" are compiled
	// into core; "geist" and "gp" come from these imports).
	_ "github.com/hpcautotune/hiperbot/internal/geist"
	_ "github.com/hpcautotune/hiperbot/internal/gp"
)

func main() {
	// The store flags bind straight into the store's configuration,
	// which OpenStoreWithConfig checks: the fsync policy, and the session
	// defaults with create's own checks.
	var cfg server.StoreConfig
	flag.StringVar((*string)(&cfg.Fsync), "fsync", "interval", "journal fsync policy: never (leave it to the OS), interval (sync once per flush tick), always (sync every append)")
	flag.DurationVar(&cfg.FlushInterval, "flush-interval", 100*time.Millisecond, "group-commit period for buffered journal appends")
	flag.IntVar(&cfg.FlushBytes, "flush-bytes", 64<<10, "buffered journal bytes that force a flush before the next tick (0 = write every append through immediately)")
	flag.IntVar(&cfg.DefaultPoolCap, "pool-cap", 0, "default sampled-pool size for sessions on spaces too large to enumerate (0 = built-in default; sessions may override per create)")
	flag.Func("objectives", "default objective specs for sessions created without any, comma-separated (e.g. \"p95_latency_ms,cost\"; two or more default the strategy to motpe)", func(s string) error { cfg.DefaultObjectives = httpapi.SplitList(s); return nil })
	flag.StringVar(&cfg.DefaultLiar, "liar", "", "default constant-liar policy for leased candidates: min, mean, or max (empty = mean; sessions may override per create)")
	flag.IntVar(&cfg.SnapshotEvents, "snapshot-events", 4096, "compact a session's journal to a snapshot + tail once the tail holds this many events (0 = no event trigger)")
	flag.IntVar(&cfg.SnapshotBytes, "snapshot-bytes", 4<<20, "compact once a session's journal reaches this many bytes (0 = no byte trigger; both triggers 0 = journals grow forever)")
	flag.IntVar(&cfg.MaxLiveSessions, "max-live-sessions", 0, "keep at most this many sessions hydrated in memory, compacting the least-recently-used ones to their snapshots and rehydrating on demand (0 = unlimited)")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		data      = flag.String("data", "./hiperbotd-data", "session journal directory (empty = in-memory only)")
		lease     = flag.Duration("lease", 10*time.Minute, "default candidate lease duration")
		maxBatch  = flag.Int("max-batch", 256, "largest candidate count per suggest call")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		peers     = flag.String("peers", "", "comma-separated base URLs of every cluster node (self included or not, both work); empty = single-node mode")
		self      = flag.String("self", "", "this node's advertised base URL, required with -peers (e.g. http://10.0.0.1:8080)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this localhost address (e.g. \"localhost:6060\" or just \"6060\"); empty = disabled. Kept off the service port so profiling is never exposed to workers")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	logger.Printf("hiperbotd: engines: %s", strings.Join(core.EngineNames(), ", "))
	cfg.Logf = logger.Printf
	store, err := server.OpenStoreWithConfig(*data, cfg)
	if err != nil {
		logger.Fatalf("hiperbotd: %v", err)
	}
	if n := store.Len(); n > 0 {
		logger.Printf("hiperbotd: resumed %d session(s) from %s (%d live)", n, *data, store.LiveLen())
	}

	srv := server.New(store, logger)
	srv.DefaultLease = *lease
	srv.MaxBatch = *maxBatch
	if *peers != "" {
		if *self == "" {
			logger.Fatalf("hiperbotd: -peers requires -self (this node's advertised URL)")
		}
		peerList := httpapi.SplitList(*peers)
		if err := srv.EnableCluster(server.ClusterConfig{Self: *self, Peers: peerList}); err != nil {
			logger.Fatalf("hiperbotd: %v", err)
		}
		logger.Printf("hiperbotd: cluster self %s, peers %s", *self, strings.Join(peerList, ", "))
	} else if *self != "" {
		logger.Fatalf("hiperbotd: -self is only meaningful with -peers")
	}
	expvar.Publish("hiperbotd", expvar.Func(func() any { return srv.MetricsSnapshot() }))
	if *pprofAddr != "" {
		go servePprof(logger, *pprofAddr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("hiperbotd: listening on %s (data: %s)", *addr, dataDesc(*data))
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("hiperbotd: %v", err)
		}
	case <-ctx.Done():
		logger.Printf("hiperbotd: shutting down (draining up to %v)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("hiperbotd: drain: %v", err)
		}
	}
	if err := store.Close(); err != nil {
		logger.Fatalf("hiperbotd: closing journals: %v", err)
	}
	logger.Printf("hiperbotd: journals flushed, bye")
}

// servePprof mounts net/http/pprof on its own mux and port, separate
// from the service mux, so the profiling endpoints never ride on the
// address workers (or the internet) reach. A bare port number is
// shorthand for localhost:PORT. Serve failures are logged, not fatal:
// losing profiling must not take the daemon down.
func servePprof(logger *log.Logger, addr string) {
	if !strings.Contains(addr, ":") {
		addr = "localhost:" + addr
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Printf("hiperbotd: pprof on http://%s/debug/pprof/", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Printf("hiperbotd: pprof server: %v", err)
	}
}

func dataDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return fmt.Sprintf("%q", dir)
}
