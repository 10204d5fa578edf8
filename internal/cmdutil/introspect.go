package cmdutil

import (
	"fmt"

	"sedspec/internal/obs"
	"sedspec/internal/obs/stream"
)

// ServeIntrospection starts the unified introspection server on addr
// over the process-wide metrics registry and telemetry hub, with a
// running health aggregator (budgetNs > 0 arms the enforcement-overhead
// watchdog), and prints the startup banner. The server and the health
// ticker live for the process; addr may use port 0.
func ServeIntrospection(addr string, budgetNs float64) (*stream.Server, error) {
	h := stream.NewHealth(obs.Default(), stream.Default(), stream.HealthOptions{
		BudgetNsPerOp: budgetNs,
	})
	srv, err := stream.Serve(addr, stream.ServerOptions{
		Registry: obs.Default(),
		Hub:      stream.Default(),
		Health:   h,
	})
	if err != nil {
		return nil, err
	}
	h.Start()
	fmt.Printf("introspection server on http://%s — /healthz /fleet /metrics /anomalies /coverage /buildinfo /debug/pprof\n",
		srv.Addr())
	return srv, nil
}
