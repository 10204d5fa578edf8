package pcnet_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/pcnet"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
	"sedspec/internal/workload"
)

func setup(t *testing.T, opts pcnet.Options) (*sedspec.Machine, *sedspec.Attached, *pcnet.Guest) {
	t.Helper()
	m := sedspec.NewMachine(machine.WithMemory(1 << 20))
	dev := pcnet.New(opts)
	att := m.Attach(dev, machine.WithPIO(0, pcnet.PortCount))
	return m, att, pcnet.NewGuest(sedspec.NewDriver(att))
}

func train(d *sedspec.Driver) error {
	return workload.TrainPCNet(d, workload.TrainConfig{Light: true})
}

func TestRegisterProtocol(t *testing.T) {
	_, _, g := setup(t, pcnet.Options{})
	lo, err := g.ReadCSR(88)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0x3003 {
		t.Errorf("chip id lo = %#x, want 0x3003", lo)
	}
	mac, err := g.ReadMAC()
	if err != nil {
		t.Fatal(err)
	}
	if mac[0] != 0x52 || mac[1] != 0x54 {
		t.Errorf("MAC prefix = %x", mac[:2])
	}
	if err := g.WriteBCR(20, 2); err != nil {
		t.Fatal(err)
	}
	v, err := g.ReadBCR(20)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("BCR20 = %d, want 2", v)
	}
}

func TestInitLatchesRings(t *testing.T) {
	_, att, g := setup(t, pcnet.Options{})
	g.RxLen, g.TxLen = 3, 2
	g.MAC = [6]byte{1, 2, 3, 4, 5, 6}
	if err := g.Setup(0); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	st := att.Dev().State()
	if v, _ := st.IntByName("rcvrl"); v != 3 {
		t.Errorf("rcvrl = %d, want 3", v)
	}
	if v, _ := st.IntByName("xmtrl"); v != 2 {
		t.Errorf("xmtrl = %d, want 2", v)
	}
	if got := st.Buf(att.Dev().Program().FieldIndex("aprom"))[0]; got != 1 {
		t.Errorf("aprom[0] = %d, want 1", got)
	}
	c, _ := g.ReadCSR(0)
	if c&pcnet.CSR0RXON == 0 || c&pcnet.CSR0TXON == 0 {
		t.Errorf("csr0 = %#x, want RXON|TXON", c)
	}
}

func TestWireTransmitRaisesTINT(t *testing.T) {
	m, _, g := setup(t, pcnet.Options{})
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	f := make([]byte, 300)
	if err := g.Transmit(f); err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	c, _ := g.ReadCSR(0)
	if c&pcnet.CSR0TINT == 0 {
		t.Errorf("csr0 = %#x, want TINT", c)
	}
	if !m.IRQ.Level(0) {
		t.Error("irq should be raised")
	}
}

func TestLoopbackDeliversFrame(t *testing.T) {
	m, _, g := setup(t, pcnet.Options{})
	g.RxLen = 2
	if err := g.Setup(pcnet.ModeLoop); err != nil {
		t.Fatal(err)
	}
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	f := make([]byte, 128)
	for i := range f {
		f[i] = byte(i)
	}
	if err := g.Transmit(f); err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	flags, mlen, err := g.RxStatus(0)
	if err != nil {
		t.Fatal(err)
	}
	if flags&pcnet.DescOWN != 0 {
		t.Error("rx descriptor still owned by device")
	}
	if mlen != 128+4 {
		t.Errorf("message length = %d, want 132", mlen)
	}
	got := make([]byte, 132)
	if err := m.Mem.Read(0x1_0000, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if got[i] != byte(i) {
			t.Fatalf("frame byte %d = %d", i, got[i])
		}
	}
	// FCS model: the 4 tail bytes repeated.
	for k := 0; k < 4; k++ {
		if got[128+k] != f[124+k] {
			t.Errorf("fcs[%d] = %d, want %d", k, got[128+k], f[124+k])
		}
	}
}

func TestWireReceive(t *testing.T) {
	_, _, g := setup(t, pcnet.Options{})
	g.RxLen = 2
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	if err := g.InjectWireFrame(make([]byte, 200)); err != nil {
		t.Fatalf("inject: %v", err)
	}
	_, mlen, err := g.RxStatus(0)
	if err != nil {
		t.Fatal(err)
	}
	if mlen != 204 {
		t.Errorf("message length = %d, want 204", mlen)
	}
}

func TestReceiveNoDescriptorDropsFrame(t *testing.T) {
	m, _, g := setup(t, pcnet.Options{})
	g.RxLen = 2
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	if err := g.AckInterrupts(); err != nil {
		t.Fatal(err)
	}
	m.IRQ.Deassert(0)
	if err := g.InjectWireFrame(make([]byte, 100)); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if m.IRQ.Level(0) {
		t.Error("dropped frame must not raise RINT")
	}
}

func gadgetFrame(t *testing.T, att *sedspec.Attached) []byte {
	t.Helper()
	prog := att.Dev().Program()
	gadget := prog.HandlerIndex("host_gadget")
	if gadget < 0 {
		t.Fatal("no gadget handler")
	}
	// 4096-byte frame whose last 4 bytes become the FCS written over
	// irq_cb's low half; the rest of the pointer stays zero because the
	// legitimate handler index is small.
	f := make([]byte, pcnet.BufSize)
	binary.LittleEndian.PutUint32(f[pcnet.BufSize-4:], uint32(gadget))
	return f
}

// CVE-2015-7504: oversized wire frame lands the FCS on irq_cb.
func TestCVE7504UnprotectedHijack(t *testing.T) {
	_, att, g := setup(t, pcnet.Options{})
	g.RxLen = 2
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	if err := g.InjectWireFrame(gadgetFrame(t, att)); err != nil {
		t.Fatalf("inject: %v", err)
	}
	// The FCS append corrupted irq_cb before the delivery interrupt, so
	// the gadget ran in the same round.
	if v, _ := att.Dev().State().IntByName("csr0"); v != 0xFFFF {
		t.Errorf("csr0 = %#x, want 0xFFFF (gadget executed)", v)
	}
}

func TestCVE7504Fix(t *testing.T) {
	_, att, g := setup(t, pcnet.Options{Fix7504: true})
	g.RxLen = 2
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	if err := g.InjectWireFrame(gadgetFrame(t, att)); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if v, _ := att.Dev().State().IntByName("csr0"); v == 0xFFFF {
		t.Error("gadget executed despite fix")
	}
}

func learnPCNet(t *testing.T, att *sedspec.Attached) *sedspec.LearnResult {
	t.Helper()
	r, err := sedspec.LearnFull(att, train)
	if err != nil {
		t.Fatalf("LearnFull: %v", err)
	}
	return r
}

func TestBenignPassesUnderProtection(t *testing.T) {
	m, att, _ := setup(t, pcnet.Options{})
	spec := learnPCNet(t, att).Spec
	chk := sedspec.Protect(att, spec)
	if err := train(sedspec.NewDriver(att)); err != nil {
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

func TestCVE7504CaughtByIndirectCheckOnly(t *testing.T) {
	// Per the paper: the parameter check misses CVE-2015-7504 (the index
	// is a temporary, not a device-state parameter); the indirect-jump
	// check catches the corrupted handler pointer before invocation.
	m, att, g := setup(t, pcnet.Options{})
	spec := learnPCNet(t, att).Spec
	sedspec.Protect(att, spec, checker.WithStrategies(checker.StrategyIndirectJump))

	g.RxLen = 2
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	err := g.InjectWireFrame(gadgetFrame(t, att))
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) || anom.Strategy != checker.StrategyIndirectJump {
		t.Fatalf("want indirect-jump anomaly, got %v", err)
	}
	if !m.Halted() {
		t.Error("machine should halt")
	}
	if v, _ := att.Dev().State().IntByName("csr0"); v == 0xFFFF {
		t.Error("gadget executed despite protection")
	}
}

func TestCVE7504EvadesParameterCheck(t *testing.T) {
	_, att, g := setup(t, pcnet.Options{})
	spec := learnPCNet(t, att).Spec
	sedspec.Protect(att, spec, checker.WithStrategies(checker.StrategyParameter))

	g.RxLen = 2
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	if err := g.InjectWireFrame(gadgetFrame(t, att)); err != nil {
		t.Fatalf("parameter check should not flag CVE-2015-7504: %v", err)
	}
	// The exploit proceeded (the paper's reported limitation).
	if v, _ := att.Dev().State().IntByName("csr0"); v != 0xFFFF {
		t.Error("exploit should have succeeded under parameter-check-only")
	}
}

// cve7512 drives the loopback transmit overflow: chained descriptors whose
// total exceeds the frame buffer.
func cve7512(t *testing.T, g *pcnet.Guest, att *sedspec.Attached) error {
	t.Helper()
	prog := att.Dev().Program()
	gadget := prog.HandlerIndex("host_gadget")
	chunk1 := make([]byte, 4000)
	// Second chunk: bytes 4000..4127 cover irq_cb at arena offset 4096.
	chunk2 := make([]byte, 128)
	binary.LittleEndian.PutUint64(chunk2[96:], uint64(gadget)) // 4000+96 = 4096
	return g.Transmit(chunk1, chunk2)
}

func TestCVE7512UnprotectedHijack(t *testing.T) {
	_, att, g := setup(t, pcnet.Options{})
	if err := g.Setup(pcnet.ModeLoop); err != nil {
		t.Fatal(err)
	}
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	if err := cve7512(t, g, att); err != nil {
		t.Fatalf("unprotected exploit failed: %v", err)
	}
	if v, _ := att.Dev().State().IntByName("csr0"); v != 0xFFFF {
		t.Errorf("csr0 = %#x, want 0xFFFF (gadget executed)", v)
	}
}

func TestCVE7512BlockedByParameterCheck(t *testing.T) {
	m, att, g := setup(t, pcnet.Options{})
	spec := learnPCNet(t, att).Spec
	sedspec.Protect(att, spec, checker.WithStrategies(checker.StrategyParameter))

	if err := g.Setup(pcnet.ModeLoop); err != nil {
		t.Fatal(err)
	}
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	err := cve7512(t, g, att)
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) || anom.Strategy != checker.StrategyParameter {
		t.Fatalf("want parameter anomaly, got %v", err)
	}
	if !m.Halted() {
		t.Error("machine should halt")
	}
}

func TestCVE7512Fix(t *testing.T) {
	_, att, g := setup(t, pcnet.Options{Fix7512: true})
	if err := g.Setup(pcnet.ModeLoop); err != nil {
		t.Fatal(err)
	}
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	if err := cve7512(t, g, att); err != nil {
		t.Fatalf("patched device errored: %v", err)
	}
	if v, _ := att.Dev().State().IntByName("csr0"); v == 0xFFFF {
		t.Error("gadget executed despite fix")
	}
}

// cve7909 programs a zero-length receive ring via the init block, then
// triggers reception with no owned descriptors.
func cve7909(g *pcnet.Guest) error {
	g.RxLen = 0
	if err := g.Setup(0); err != nil {
		return err
	}
	return g.InjectWireFrame(make([]byte, 64))
}

func TestCVE7909UnprotectedHangs(t *testing.T) {
	_, att, g := setup(t, pcnet.Options{})
	// Bound the emulation so the test terminates; the fault stands in for
	// a hung vCPU thread.
	att.Interp().SetStepBudget(200_000)
	g.RxLen = 0
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	res, err := att.DispatchDirect(interp.NewWrite(interp.SpacePIO, pcnet.PortWire, make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || res.Fault.Kind != interp.FaultStepBudget {
		t.Fatalf("fault = %v, want step-budget (emulation loop)", res.Fault)
	}
}

func TestCVE7909BlockedByConditionalCheck(t *testing.T) {
	m, att, g := setup(t, pcnet.Options{})
	spec := learnPCNet(t, att).Spec
	sedspec.Protect(att, spec,
		checker.WithStrategies(checker.StrategyConditionalJump),
		checker.WithBudget(100_000))

	g.RxLen = 0
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	err := g.InjectWireFrame(make([]byte, 64))
	var anom *sedspec.Anomaly
	if !errors.As(err, &anom) || anom.Strategy != checker.StrategyConditionalJump {
		t.Fatalf("want conditional-jump anomaly, got %v", err)
	}
	if !m.Halted() {
		t.Error("machine should halt before the device spins")
	}
}

func TestCVE7909Fix(t *testing.T) {
	_, att, g := setup(t, pcnet.Options{Fix7909: true})
	att.Interp().SetStepBudget(200_000)
	if err := cve7909(g); err != nil {
		t.Fatalf("patched device errored: %v", err)
	}
	if v, _ := att.Dev().State().IntByName("rcvrl"); v != 1 {
		t.Errorf("rcvrl = %d, want 1 (clamped)", v)
	}
}

// TestLinkStateSyncPoint verifies the paper's sync-point machinery end to
// end: the transmit path branches on the backend link state, which is not
// derivable from device state or I/O data. The checker resolves it by
// querying the environment, so protected transmissions stay clean whether
// the cable is up or down.
func TestLinkStateSyncPoint(t *testing.T) {
	m, att, g := setup(t, pcnet.Options{})
	r, err := sedspec.LearnFull(att, train)
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Stats.SyncPoints == 0 {
		t.Fatal("the link-state read should be a sync point")
	}
	chk := sedspec.Protect(att, r.Spec)

	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	for _, up := range []bool{true, false, true, false} {
		att.SetLink(up)
		if err := g.Transmit(make([]byte, 256)); err != nil {
			t.Fatalf("link=%v transmit blocked: %v", up, err)
		}
		if err := g.AckInterrupts(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Halted() {
		t.Fatal("machine halted")
	}
	st := chk.Stats()
	if st.ParamAnomalies+st.IndirectAnomalies+st.CondAnomalies != 0 {
		t.Fatalf("link toggling caused anomalies: %+v", st)
	}
	if st.SyncPointsResolved == 0 {
		t.Error("sync points should have been resolved")
	}
}

// TestRuntFramesPaddedUnderProtection sends frames shorter than the
// Ethernet minimum (0, 1, 3 and 59 bytes) to a protected adapter. The
// backend pads them, so the FCS append stays inside the frame buffer:
// the device does not fault, the check raises no anomaly, warning or
// resync, and a batched delivery of the same frames is checked in full.
func TestRuntFramesPaddedUnderProtection(t *testing.T) {
	m, att, g := setup(t, pcnet.Options{})
	spec := learnPCNet(t, att).Spec
	chk := sedspec.Protect(att, spec)
	if err := g.Setup(0); err != nil {
		t.Fatal(err)
	}
	runts := [][]byte{{}, {0xaa}, {1, 2, 3}, make([]byte, pcnet.MinFrameLen-1)}
	for _, f := range runts {
		if err := g.ProvideRx(0); err != nil {
			t.Fatal(err)
		}
		if err := g.InjectWireFrame(f); err != nil {
			t.Fatalf("%d-byte frame: %v", len(f), err)
		}
		_, mlen, err := g.RxStatus(0)
		if err != nil {
			t.Fatal(err)
		}
		if mlen != pcnet.MinFrameLen+4 {
			t.Errorf("%d-byte frame: message length = %d, want %d", len(f), mlen, pcnet.MinFrameLen+4)
		}
	}

	// The same frames again, delivered as one batch: every request is
	// checked and none faults the device.
	if err := g.ProvideRx(0); err != nil {
		t.Fatal(err)
	}
	var reqs []*interp.Request
	for _, f := range runts {
		reqs = append(reqs, interp.NewWrite(interp.SpacePIO, pcnet.PortWire, pcnet.PadFrame(f)))
	}
	vs := chk.PreIOBatch(reqs)
	for k, v := range vs {
		if !v.Checked || v.Err != nil {
			t.Fatalf("batched frame %d (%d bytes): checked=%t err=%v", k, len(runts[k]), v.Checked, v.Err)
		}
	}
	var res *interp.Result
	for _, req := range reqs {
		req.Rewind()
		if res = att.Interp().Dispatch(req); res.Fault != nil {
			t.Fatalf("batched %d-byte frame faulted the device: %v", len(req.Data), res.Fault)
		}
	}
	chk.PostIO(att.Dev(), reqs[len(reqs)-1], res)

	if m.Halted() {
		t.Fatal("machine halted on runt frames")
	}
	st := chk.Stats()
	if st.ParamAnomalies+st.IndirectAnomalies+st.CondAnomalies+st.Warnings+st.Resyncs != 0 {
		t.Fatalf("runt frames disturbed the check: %+v", st)
	}
}
