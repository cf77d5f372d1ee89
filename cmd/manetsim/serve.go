package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"manetsim"
)

// runServe starts the campaign-as-a-service HTTP mode: one shared
// Campaign (worker-pooled arenas, in-memory cache, optional persistent
// result store) behind the submit/status/results/events API.
//
// The server shuts down gracefully on SIGINT/SIGTERM: new submissions
// are refused, in-flight sweeps get -drain to finish (with a -store
// every completed run is already durable, so even an overrun drain
// loses nothing on restart), and the process exits non-zero if the
// drain deadline forced an abort.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8971", "listen address")
		storeDir  = fs.String("store", "", "persistent result store directory; empty = in-memory cache only (sweeps are not resumable across restarts)")
		workers   = fs.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		scaleName = fs.String("scale", "quick", "default per-run measurement budget: paper, quick or bench")
		drain     = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight sweeps on SIGINT/SIGTERM")
	)
	fs.Parse(args)

	var scale manetsim.Scale
	switch strings.ToLower(*scaleName) {
	case "paper":
		scale = manetsim.PaperScale
	case "quick":
		scale = manetsim.QuickScale
	case "bench":
		scale = manetsim.BenchScale
	default:
		fatalf("unknown scale %q (paper, quick, bench)", *scaleName)
	}

	opts := []manetsim.CampaignOption{manetsim.WithWorkers(*workers)}
	if *storeDir != "" {
		opts = append(opts, manetsim.WithStore(*storeDir))
	}
	campaign := manetsim.NewCampaign(scale, opts...)
	if err := campaign.Ready(); err != nil {
		fatalf("serve: %v", err)
	}
	server := manetsim.NewServer(campaign)

	if *storeDir != "" {
		log.Printf("manetsim serve: result store at %s (schema v%d)", *storeDir, manetsim.ResultSchemaVersion)
	} else {
		log.Printf("manetsim serve: no -store directory; results are in-memory only")
	}
	log.Printf("manetsim serve: listening on http://%s/api/v1/ (scale %s)", *addr, scale.Name)

	srv := &http.Server{
		Addr:    *addr,
		Handler: server,
		// Event streams outlive WriteTimeout by clearing their own write
		// deadline; every other response is small and fast.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-ctx.Done():
		stop() // a second signal kills the process immediately
	}

	log.Printf("manetsim serve: shutting down (draining in-flight sweeps for up to %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the sweep jobs first so event streams reach their terminal
	// events; then the HTTP server's own shutdown finds idle connections.
	drainErr := server.Shutdown(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("manetsim serve: closing listener: %v", err)
	}
	if drainErr != nil {
		log.Printf("manetsim serve: drain deadline exceeded; %s", abortNote(*storeDir))
		os.Exit(1)
	}
	drained := "all sweeps drained"
	if n := campaign.StoreWriteErrors(); n > 0 {
		drained += fmt.Sprintf(" (%d results failed to reach the store; they re-run on restart)", n)
	}
	log.Printf("manetsim serve: %s; bye", drained)
}

func abortNote(storeDir string) string {
	if storeDir != "" {
		return "aborted sweeps resume from the store's completed runs on restart"
	}
	return "aborted sweeps are lost (no -store configured)"
}
