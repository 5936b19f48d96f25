// Command atum-serve runs the multi-tenant trace daemon: capture
// sessions, stored traces and analyses behind the versioned JSON API
// (internal/serve/api). Quick tour, with curl:
//
//	atum-serve -addr 127.0.0.1:8787 &
//	curl -X POST localhost:8787/v1/tenants/alpha/sessions \
//	     -d '{"name":"boot","budget":2000000}'
//	curl localhost:8787/v1/tenants/alpha/sessions/boot
//	curl -X DELETE localhost:8787/v1/tenants/alpha/sessions/boot
//	curl localhost:8787/v1/tenants/alpha/traces/boot
//	curl -X POST localhost:8787/v1/tenants/alpha/analyses \
//	     -d '{"trace":"boot","kind":"summary"}'
//	curl localhost:8787/v1/tenants/alpha/metrics   # tenant-isolated
//	curl localhost:8787/metrics                    # daemon-wide
//
// The CLIs speak the same API via -remote: e.g.
// "atum-stats -remote localhost:8787 alpha/boot".
package main

import (
	"flag"
	"log"
	"net/http"

	"atum/internal/obs"
	"atum/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8787", "listen address")
	arenaMB := flag.Int64("arena-cache-mb", 256, "decoded-segment cache budget in MiB, shared across tenants")
	spoolMB := flag.Int("spool-mb", 8, "how far a live segment streamer may lag a capture (MiB) before it degrades to counted drops")
	segBytes := flag.Uint("segment-bytes", 64<<10, "default per-segment capture buffer for sessions that don't choose one")
	budget := flag.Uint64("budget", 50_000_000, "default instruction budget for sessions that don't choose one")
	flag.Parse()

	srv := serve.NewServer(serve.Options{
		ArenaCacheBytes: *arenaMB << 20,
		SpoolBytes:      *spoolMB << 20,
		SegmentBytes:    uint32(*segBytes),
		Budget:          *budget,
	})
	log.Printf("atum-serve: listening on %s (API %s)", *addr, "v1")
	hs := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: obs.ReadHeaderTimeout}
	log.Fatal(hs.ListenAndServe())
}
