package main

import (
	"context"
	"log"
	"os"
	"os/signal"
	"syscall"

	"uvmasim/internal/metrics"
	"uvmasim/internal/profile"
	"uvmasim/internal/serve"
	"uvmasim/internal/store"
)

// runServe boots the experiment service and blocks until SIGTERM or
// SIGINT, then drains gracefully (readiness flips to 503, in-flight
// requests finish, the listener closes). One metrics registry spans the
// whole process: the serving plane, the cell cache and executor, and
// the persistent store all report into it, and /metrics exposes it.
func runServe(addr string, maxInflight, par int, cacheDir, profName string) error {
	p, err := profile.Resolve(profName)
	if err != nil {
		return err
	}
	reg := metrics.New()
	var st store.Store
	if cacheDir != "" {
		dir, err := store.Open(cacheDir)
		if err != nil {
			return err
		}
		dir.Instrument(reg)
		st = dir
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := serve.New(serve.Config{
		Store:          st,
		StoreDir:       cacheDir,
		MaxInFlight:    maxInflight,
		Parallelism:    par,
		Registry:       reg,
		Log:            log.New(os.Stderr, "", 0),
		DefaultProfile: p,
	})
	return s.ListenAndServe(ctx, addr)
}
