// Tileserver: an HTTP service that answers multiresolution mesh-tile
// requests from a Direct Mesh store — the "light-weight applications ...
// and Internet applications" scenario from the paper's introduction.
// Clients ask for a region and a LOD percentile and receive the
// triangulated approximation as JSON.
//
// The serving core lives in internal/serve (shared tile cache, coherent
// camera sessions, per-request DA attribution, /metrics + /slowlog +
// /debug introspection); this binary is the single-node deployment of
// it: build a terrain, mount the server, run until SIGINT/SIGTERM, then
// drain in-flight requests with a graceful shutdown. The same core run
// N times behind a consistent-hash router is the sharded cluster
// (internal/cluster).
//
//	go run ./examples/tileserver [-addr :8080] [-slowms 50] [-introspect=true]
//
//	curl 'http://localhost:8080/tile?x0=0.2&y0=0.2&x1=0.5&y1=0.5&lod=0.9'
//	curl 'http://localhost:8080/frame?session=cam1&x0=0.2&y0=0.0&x1=0.7&y1=0.4&near=0.75&far=0.99'
//	curl 'http://localhost:8080/frame?session=cam1&x0=0.2&y0=0.1&x1=0.7&y1=0.5&near=0.75&far=0.99'
//	curl 'http://localhost:8080/patch?level=1&ix=0&iy=1&band=3'
//	curl 'http://localhost:8080/hottiles?n=10'
//	curl 'http://localhost:8080/metrics'
//	curl 'http://localhost:8080/slowlog?n=5'
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dmesh"
	"dmesh/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	size := flag.Int("size", 129, "terrain size")
	slowMS := flag.Int("slowms", 50, "slow-log admission threshold in milliseconds")
	introspect := flag.Bool("introspect", true, "mount /metrics, /slowlog and /debug/pprof/")
	drainSec := flag.Int("drain", 10, "graceful-shutdown drain timeout in seconds")
	flag.Parse()

	terrain, err := dmesh.Build(dmesh.Config{Dataset: "highland", Size: *size, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	s, err := serve.New(serve.Config{
		Terrain:       terrain,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	bound, err := s.Start(*addr, *introspect)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %d-point terrain on %s (%d pool shards, introspection %v)",
		terrain.NumPoints(), bound, runtime.NumCPU(), *introspect)

	// Run until interrupted, then drain: stop accepting, let in-flight
	// tile fetches finish, give up after the drain timeout.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	log.Printf("received %v, draining (up to %ds)", sig, *drainSec)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSec)*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Print("drained cleanly")
}
