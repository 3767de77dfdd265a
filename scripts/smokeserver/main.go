// Command smokeserver is a minimal counter server for the CI fault
// smoke test (scripts/perfmon_smoke.sh): it exposes one ticking
// counter over the parcel transport on a fixed address, so a perfmon
// loop can be pointed at it while the script kills and restarts it
// mid-sampling.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/parcel"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:7117", "parcel address to serve on")
		dur  = flag.Duration("for", time.Minute, "exit after this long (safety net)")
	)
	flag.Parse()

	reg := core.NewRegistry()
	c := core.NewLocalityRaw("threads", "count/cumulative", 0, "smoke ticks", "")
	reg.MustRegister(c)
	go func() {
		for range time.Tick(10 * time.Millisecond) {
			c.Inc()
		}
	}()

	srv, err := parcel.Serve(*addr, reg, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokeserver:", err)
		os.Exit(1)
	}
	fmt.Printf("smokeserver: serving on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case <-time.After(*dur):
	}
	srv.Close()
}
