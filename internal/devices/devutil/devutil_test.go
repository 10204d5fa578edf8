package devutil_test

import (
	"sync"
	"testing"

	"sedspec/internal/devices/devutil"
	"sedspec/internal/interp"
	"sedspec/internal/ir"
)

func tinyProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("tiny")
	b.Int("reg", ir.W8)
	b.Func("cb")
	h := b.Handler("dispatch")
	h.Block("e").Entry().Halt("return")
	cb := b.Handler("on_irq")
	cb.Block("e").Return("return")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestBaseLifecycle(t *testing.T) {
	prog := tinyProgram(t)
	resets := 0
	base := devutil.NewBase(prog, func(st *interp.State, p *ir.Program) {
		resets++
		st.SetIntByName("reg", 0x42)
		devutil.SetFunc(st, p, "cb", "on_irq")
	})
	if base.Name() != "tiny" || base.Program() != prog {
		t.Error("identity accessors wrong")
	}
	if resets != 1 {
		t.Errorf("NewBase should reset once, got %d", resets)
	}
	if v, _ := base.State().IntByName("reg"); v != 0x42 {
		t.Errorf("power-on value not applied: %#x", v)
	}
	if got := base.State().FuncPtr(prog.FieldIndex("cb")); got != uint64(prog.HandlerIndex("on_irq")) {
		t.Error("SetFunc did not install the handler")
	}

	base.State().SetIntByName("reg", 0x99)
	base.Reset()
	if v, _ := base.State().IntByName("reg"); v != 0x42 {
		t.Error("Reset should restore power-on values")
	}
	if resets != 2 {
		t.Errorf("resets = %d, want 2", resets)
	}
}

func TestSetFuncPanicsOnUnknown(t *testing.T) {
	prog := tinyProgram(t)
	st := interp.NewState(prog)
	defer func() {
		if recover() == nil {
			t.Error("SetFunc with unknown names should panic (programming error)")
		}
	}()
	devutil.SetFunc(st, prog, "ghost", "on_irq")
}

func TestMustBuildPanicsOnInvalid(t *testing.T) {
	b := ir.NewBuilder("bad")
	h := b.Handler("dispatch")
	h.Block("e").Jump("nowhere", "goto nowhere")
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on an invalid program")
		}
	}()
	devutil.MustBuild(b)
}

// TestProgramsBuildOncePerVariant pins the program cache: concurrent
// first calls for one variant build it once and share the result, and
// each variant gets its own program.
func TestProgramsBuildOncePerVariant(t *testing.T) {
	type opts struct{ fix bool }
	var mu sync.Mutex
	builds := map[opts]int{}
	progs := devutil.NewPrograms(func(o opts) *ir.Program {
		mu.Lock()
		builds[o]++
		mu.Unlock()
		return tinyProgram(t)
	})
	got := make([]*ir.Program, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = progs.Get(opts{fix: i%2 == 1})
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[i%2] {
			t.Errorf("call %d got a different program for its variant", i)
		}
	}
	if got[0] == got[1] {
		t.Error("two variants share one program")
	}
	if builds[opts{false}] != 1 || builds[opts{true}] != 1 {
		t.Errorf("builds per variant = %v, want 1 each", builds)
	}
}
