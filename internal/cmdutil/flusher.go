// Package cmdutil holds small helpers shared by the sedspec, sedfuzz, and
// sedbench commands.
package cmdutil

import (
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Flusher runs registered final-export steps (sedspec's coverage
// profiles and stored coverage) exactly once — on normal exit via a
// deferred Flush, or on SIGINT/SIGTERM, so an interrupted run still
// leaves its telemetry on disk. The signal path exits with the
// conventional 128+sig status after flushing.
type Flusher struct {
	mu    sync.Mutex
	steps []func() error
	done  bool
}

// NewFlusher returns a flusher with its signal handler installed.
func NewFlusher() *Flusher {
	f := &Flusher{}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		f.Flush()
		code := 128 + int(syscall.SIGTERM)
		if s, isSys := sig.(syscall.Signal); isSys {
			code = 128 + int(s)
		}
		os.Exit(code)
	}()
	return f
}

// Add registers a final-export step. Steps run in registration order; a
// failing step is reported on stderr and does not stop the others.
func (f *Flusher) Add(step func() error) {
	f.mu.Lock()
	f.steps = append(f.steps, step)
	f.mu.Unlock()
}

// Flush runs every registered step once. Safe to call from the deferred
// exit path and the signal handler concurrently; only the first call runs
// the steps. It returns the first step error, if any.
func (f *Flusher) Flush() error {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return nil
	}
	f.done = true
	steps := f.steps
	f.mu.Unlock()
	var first error
	for _, step := range steps {
		if err := step(); err != nil {
			fmt.Fprintf(os.Stderr, "final export: %v\n", err)
			if first == nil {
				first = err
			}
		}
	}
	return first
}
