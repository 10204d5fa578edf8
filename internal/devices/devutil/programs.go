package devutil

import (
	"sync"

	"sedspec/internal/ir"
)

// Programs builds each variant of a device program once per process and
// hands the same finalized program to every later caller. A program is
// read-only after Build, so every instance of a variant shares it; only
// the control structure (interp.State) is per instance.
//
// The key is a device package's Options value. Options are a handful of
// Fix* flags, so a device has at most a few variants and the cache is
// never evicted.
type Programs[O comparable] struct {
	build func(O) *ir.Program

	mu    sync.Mutex
	progs map[O]*ir.Program
}

// NewPrograms returns an empty cache over build. build must be
// deterministic in its options: a cached program stands in for every
// later build of the same variant.
func NewPrograms[O comparable](build func(O) *ir.Program) *Programs[O] {
	return &Programs[O]{build: build, progs: make(map[O]*ir.Program)}
}

// Get returns the program for opts, building it on first use. Concurrent
// first calls for one variant build it once.
func (c *Programs[O]) Get(opts O) *ir.Program {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.progs[opts]
	if !ok {
		p = c.build(opts)
		c.progs[opts] = p
	}
	return p
}
