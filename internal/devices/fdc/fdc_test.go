package fdc_test

import (
	"errors"
	"sedspec/internal/core"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/machine"
	"sedspec/internal/workload"
)

func setup(t *testing.T, opts fdc.Options) (*sedspec.Machine, *sedspec.Attached, *fdc.Guest) {
	t.Helper()
	m := sedspec.NewMachine()
	dev := fdc.New(opts)
	att := m.Attach(dev, machine.WithPIO(0, fdc.PortCount))
	return m, att, fdc.NewGuest(sedspec.NewDriver(att))
}

func train(d *sedspec.Driver) error {
	return workload.TrainFDC(d, workload.TrainConfig{Light: true})
}

func TestGuestCommandProtocol(t *testing.T) {
	m, _, g := setup(t, fdc.Options{})

	if err := g.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	v, err := g.Version()
	if err != nil {
		t.Fatalf("Version: %v", err)
	}
	if v != 0x90 {
		t.Errorf("version = %#x, want 0x90", v)
	}
	if err := g.Seek(0, 7); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	res, err := g.SenseInt()
	if err != nil {
		t.Fatalf("SenseInt: %v", err)
	}
	if len(res) != 2 || res[1] != 7 {
		t.Errorf("SenseInt = %v, want track 7", res)
	}
	if !m.IRQ.Level(0) {
		t.Error("seek should raise the interrupt line")
	}
}

func TestSectorTransferRoundTrip(t *testing.T) {
	m, _, g := setup(t, fdc.Options{})
	if err := g.Reset(); err != nil {
		t.Fatal(err)
	}
	// Seed guest memory at the DMA buffer, write 2 sectors, wipe, read
	// back.
	want := make([]byte, 2*fdc.SectorSize)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := m.Mem.Write(uint64(g.DMABuf), want); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteSectors(0, 0, 1, 2); err != nil {
		t.Fatalf("WriteSectors: %v", err)
	}
	// The write staged sectors through the FIFO; the last sector's data
	// remains there. Reading the same span must push FIFO contents back.
	if err := m.Mem.Write(uint64(g.DMABuf), make([]byte, 2*fdc.SectorSize)); err != nil {
		t.Fatal(err)
	}
	if err := g.ReadSectors(0, 0, 1, 2); err != nil {
		t.Fatalf("ReadSectors: %v", err)
	}
	got := make([]byte, fdc.SectorSize)
	if err := m.Mem.Read(uint64(g.DMABuf), got); err != nil {
		t.Fatal(err)
	}
	// The model has no disk image: reads return FIFO contents (the last
	// written sector), whose first bytes the READ command's own command
	// and result staging overwrote — exactly as the shared FIFO of the
	// real controller would. Verify the DMA path moved the sector tail.
	for i := 16; i < fdc.SectorSize; i++ {
		if got[i] != want[fdc.SectorSize+i] {
			t.Fatalf("sector byte %d = %#x, want %#x", i, got[i], want[fdc.SectorSize+i])
		}
	}
}

func TestTrainingWorkloadRuns(t *testing.T) {
	m, att, _ := setup(t, fdc.Options{})
	d := sedspec.NewDriver(att)
	if err := train(d); err != nil {
		t.Fatalf("TrainFDC: %v", err)
	}
	if m.Halted() {
		t.Fatal("machine halted during training")
	}
}

func learnFDC(t *testing.T, att *sedspec.Attached) *sedspec.LearnResult {
	t.Helper()
	r, err := sedspec.LearnFull(att, train)
	if err != nil {
		t.Fatalf("LearnFull: %v", err)
	}
	return r
}

func TestSpecLearnsCommands(t *testing.T) {
	_, att, _ := setup(t, fdc.Options{})
	r := learnFDC(t, att)
	// Commands trained: specify, sense-drive, recalibrate, sense-int,
	// seek, version, configure, write, read = 9.
	if r.Spec.Stats.Commands != 9 {
		t.Errorf("commands = %d, want 9", r.Spec.Stats.Commands)
	}
	if r.Spec.Stats.SyncPoints == 0 {
		t.Error("media-presence check should be a sync point")
	}
	prog := att.Dev().Program()
	for _, name := range []string{"fifo", "data_pos", "data_len", "irq_cb", "msr", "cur_cmd"} {
		if !r.Params.Contains(prog.FieldIndex(name)) {
			t.Errorf("param %q not selected", name)
		}
	}
}

func TestBenignPassesUnderProtection(t *testing.T) {
	m, att, _ := setup(t, fdc.Options{})
	spec := learnFDC(t, att).Spec
	chk := sedspec.Protect(att, spec)
	d := sedspec.NewDriver(att)
	if err := train(d); err != nil {
		t.Fatalf("benign traffic blocked: %v", err)
	}
	if m.Halted() {
		t.Fatal("halted on benign traffic")
	}
	st := chk.Stats()
	if st.ParamAnomalies+st.IndirectAnomalies+st.CondAnomalies != 0 {
		t.Fatalf("anomalies on benign traffic: %+v", st)
	}
}

// venom drives CVE-2015-3456: an invalid command leaves data_len at 0, and
// repeated FIFO writes walk data_pos past the 512-byte FIFO.
func venom(g *fdc.Guest, writes int) error {
	if err := g.PushFIFO(0x77); err != nil { // invalid command byte
		return err
	}
	for i := 0; i < writes; i++ {
		if err := g.PushFIFO(0x42); err != nil {
			return err
		}
	}
	return nil
}

func TestVenomCorruptsUnprotectedDevice(t *testing.T) {
	_, att, g := setup(t, fdc.Options{})
	if err := g.Reset(); err != nil {
		t.Fatal(err)
	}
	// 540 writes: indices 0..539 walk past fifo[512] into data_pos and
	// beyond.
	if err := venom(g, 540); err != nil {
		t.Fatalf("unprotected venom errored early: %v", err)
	}
	pos, _ := att.Dev().State().IntByName("data_pos")
	if pos <= 512 {
		t.Errorf("data_pos = %d, want > 512 (unbounded growth)", pos)
	}
}

func TestVenomFixStopsOverflow(t *testing.T) {
	_, att, g := setup(t, fdc.Options{FixVenom: true})
	if err := g.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := venom(g, 600); err != nil {
		t.Fatalf("patched venom errored: %v", err)
	}
	// data_pos still grows, but stores are masked into the FIFO: nothing
	// outside it was touched. irq_cb must be intact.
	prog := att.Dev().Program()
	if got := att.Dev().State().FuncPtr(prog.FieldIndex("irq_cb")); got != uint64(prog.HandlerIndex("fdctrl_raise_irq")) {
		t.Error("irq_cb corrupted despite fix")
	}
}

func TestVenomBlockedBySEDSpec(t *testing.T) {
	m, att, _ := setup(t, fdc.Options{})
	spec := learnFDC(t, att).Spec
	sedspec.Protect(att, spec, checker.WithStrategies(checker.StrategyParameter))

	g := fdc.NewGuest(sedspec.NewDriver(att))
	err := venom(g, 540)
	if err == nil {
		t.Fatal("venom was not blocked")
	}
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) {
		t.Fatalf("error %v does not wrap an Anomaly", err)
	}
	if anom.Strategy != checker.StrategyParameter {
		t.Errorf("strategy = %v, want parameter-check", anom.Strategy)
	}
	if !m.Halted() {
		t.Error("machine should halt in protection mode")
	}
	// The device's FIFO index never escaped.
	pos, _ := att.Dev().State().IntByName("data_pos")
	if pos > 512 {
		t.Errorf("data_pos = %d: overflow reached the device", pos)
	}
}

func TestVenomCaughtByConditionalCheckToo(t *testing.T) {
	// The paper notes Venom violates the conditional-jump check as well:
	// the invalid-command path is never traversed in training.
	_, att, _ := setup(t, fdc.Options{})
	spec := learnFDC(t, att).Spec
	sedspec.Protect(att, spec, checker.WithStrategies(checker.StrategyConditionalJump))

	g := fdc.NewGuest(sedspec.NewDriver(att))
	err := venom(g, 1)
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) || anom.Strategy != checker.StrategyConditionalJump {
		t.Fatalf("want conditional-jump anomaly, got %v", err)
	}
}

func TestRareCommandsFlagged(t *testing.T) {
	_, att, _ := setup(t, fdc.Options{})
	spec := learnFDC(t, att).Spec
	sedspec.Protect(att, spec)
	g := fdc.NewGuest(sedspec.NewDriver(att))
	err := g.DumpReg() // legitimate but untrained
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) || anom.Strategy != checker.StrategyConditionalJump {
		t.Fatalf("want conditional-jump anomaly for rare command, got %v", err)
	}
}

// TestMediaChangeSyncPoint: the DIR register's disk-change bit depends on
// media presence — an environment value the specification keeps as a sync
// point. Ejecting and inserting the medium at runtime must not trip the
// checker.
func TestMediaChangeSyncPoint(t *testing.T) {
	m, att, g := setup(t, fdc.Options{})
	spec := learnFDC(t, att).Spec
	chk := sedspec.Protect(att, spec)
	for _, present := range []bool{true, false, false, true} {
		att.SetMedia(present)
		dir, err := g.CheckMedia()
		if err != nil {
			t.Fatalf("media=%v check blocked: %v", present, err)
		}
		wantBit := byte(0x80)
		if present {
			wantBit = 0
		}
		if dir != wantBit {
			t.Errorf("media=%v DIR = %#x, want %#x", present, dir, wantBit)
		}
	}
	if m.Halted() {
		t.Fatal("machine halted")
	}
	if st := chk.Stats(); st.CondAnomalies != 0 {
		t.Fatalf("media toggling caused anomalies: %+v", st)
	}
}

// TestSpecPersistenceRoundTrip encodes the learned specification,
// decodes it against the same program, and verifies the decoded spec
// protects identically: benign traffic clean, Venom blocked.
func TestSpecPersistenceRoundTrip(t *testing.T) {
	_, att, _ := setup(t, fdc.Options{})
	spec := learnFDC(t, att).Spec

	data, err := spec.EncodeBinary()
	if err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	reloaded, err := core.DecodeBinary(att.Dev().Program(), data)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if reloaded.Stats != spec.Stats {
		t.Errorf("stats changed across round trip")
	}

	chk := sedspec.Protect(att, reloaded)
	if chk.Mode() != checker.ModeProtection {
		t.Errorf("mode = %v, want protection", chk.Mode())
	}
	d := sedspec.NewDriver(att)
	if err := train(d); err != nil {
		t.Fatalf("benign traffic blocked under reloaded spec: %v", err)
	}
	g := fdc.NewGuest(d)
	err = venom(g, 540)
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) {
		t.Fatalf("venom not blocked under reloaded spec: %v", err)
	}
}
