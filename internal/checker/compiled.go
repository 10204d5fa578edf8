package checker

import (
	"sedspec/internal/core"
	"sedspec/internal/ir"
)

// Compiled is a specification in the form every check engine runs: its
// sealed runtime form, the entry-block material every round needs, and
// the threaded-code stream with handlers bound. It keeps no reference to
// the learned spec, so a daemon that holds only compiled versions does
// not keep their specs alive. Compile builds it once; it is immutable
// afterwards, so one Compiled may be published by any number of engines,
// across tenants, and again after a rollback, without copying.
type Compiled struct {
	sealed     *core.SealedSpec
	prog       *ir.Program
	entryTemps int
	entryRef   ir.BlockRef
	// tprog is the threaded-code stream every session dispatches over.
	tprog *threadedProg
}

// Compile seals a spec into its publishable form. It is the only seal
// path of the shared engine: NewShared and Swap compile their spec
// argument through it.
func Compile(spec *core.Spec) *Compiled {
	sealed, tc := spec.SealThreaded()
	cv := &Compiled{sealed: sealed, prog: spec.Program()}
	if es := spec.Block(spec.Entry); es != nil {
		cv.entryTemps = cv.prog.Handlers[es.Ref.Handler].NumTemps
		cv.entryRef = es.Ref
	}
	cv.tprog = buildThreaded(tc)
	return cv
}

// specVersion is one published generation of the enforced
// specification: a compiled spec plus the generation stamped when an
// engine published it. The shared engine publishes versions through an
// atomic pointer; sessions adopt the current version at round
// boundaries, so one round always runs entirely against one version.
type specVersion struct {
	gen uint64
	*Compiled
}
