package cmdutil

import (
	"fmt"

	"sedspec/internal/obs/stream"
)

// ServeIntrospection starts the unified introspection server on addr
// over the process-wide metrics registry and telemetry hub, and prints
// the startup banner. The server lives for the process; addr may use
// port 0.
func ServeIntrospection(addr string) (*stream.Server, error) {
	srv, err := stream.Serve(addr, stream.ServerOptions{})
	if err != nil {
		return nil, err
	}
	fmt.Printf("introspection server on http://%s — /healthz /fleet /metrics /journal /debug/pprof\n",
		srv.Addr())
	return srv, nil
}
