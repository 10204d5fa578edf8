package main

import (
	"encoding/binary"
	"fmt"

	"sedspec"
	"sedspec/internal/devices/ehci"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/devices/pcnet"
	"sedspec/internal/devices/scsi"
	"sedspec/internal/devices/sdhci"
	"sedspec/internal/machine"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

// recipe is one evaluated device: how to build it, how to train its
// specification (the light benign corpus), and how a guest drives it.
type recipe struct {
	name     string
	build    machine.BuildFunc
	train    sedspec.TrainFunc
	newGuest func(d *sedspec.Driver, rng *simclock.Rand) *guest
}

// guest is one live guest bound to a device: a benign operation, a bulk
// transfer, and (on ring/doorbell devices) a burst delivered through
// machine.DispatchBatch. transfer and burst return the payload bytes
// they moved.
type guest struct {
	prepare  func() error
	op       func() error
	transfer func(write bool, n int) (int, error)
	// burst is nil on devices without a batched delivery helper.
	burst func(k int) (int, error)
}

// The guest-io mix comes in blocks of 20 steps with fixed proportions,
// in seeded order: 14 benign ops, 3 bulk transfers (one from each third
// of the 4-64 KiB size range) and 3 ring/doorbell bursts of 2-8
// requests. Fixed proportions keep the load's composition independent
// of the seed. Devices without a burst helper issue a benign op in the
// burst slot.
//
// The 4 and 64 KiB ends are the two smallest block sizes of sedbench's
// Figure 3-4 sweep, and each device's transfer moves data in the chunks
// sedbench's targets use (fdc 8 sectors, ehci 3072 B, pcnet 1500-byte
// frames as in Figure 5, sdhci 8 and scsi 16 blocks of 512 B). The
// 14:3:3 proportions and the burst lengths are this benchmark's own
// choice, not the paper's; each run reports what share of the rounds
// and of the op time every kind of step took (mix.<kind>.*_pct).
const (
	blockOps       = 14
	blockTransfers = 3
	blockBursts    = 3
	minTransfer    = 4 << 10
	maxTransfer    = 64 << 10
)

type stepKind uint8

const (
	stepOp stepKind = iota
	stepTransfer
	stepBurst
	numStepKinds
)

// stepNames names each stepKind in reports.
var stepNames = [numStepKinds]string{"op", "transfer", "burst"}

// step is one planned guest operation: n is the transfer size in bytes
// or the burst length.
type step struct {
	kind  stepKind
	n     int
	write bool
}

// planBlock draws one block of the mix.
func planBlock(rng *simclock.Rand) []step {
	block := make([]step, 0, blockOps+blockTransfers+blockBursts)
	span := (maxTransfer - minTransfer) / blockTransfers
	for i := 0; i < blockOps; i++ {
		block = append(block, step{kind: stepOp})
	}
	for i := 0; i < blockTransfers; i++ {
		n := minTransfer + i*span + rng.Intn(span+1)
		block = append(block, step{kind: stepTransfer, n: n, write: rng.Bool(0.5)})
	}
	for i := 0; i < blockBursts; i++ {
		block = append(block, step{kind: stepBurst, n: 2 + rng.Intn(7)})
	}
	for i := len(block) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		block[i], block[j] = block[j], block[i]
	}
	return block
}

// kind is the kind of step do actually issues for s.
func (g *guest) kind(s step) stepKind {
	if s.kind == stepBurst && g.burst == nil {
		return stepOp
	}
	return s.kind
}

// do issues one planned step and returns the payload bytes it moved.
func (g *guest) do(s step) (int, error) {
	switch g.kind(s) {
	case stepTransfer:
		return g.transfer(s.write, s.n)
	case stepBurst:
		return g.burst(s.n)
	default:
		return 0, g.op()
	}
}

// recipes returns the five evaluated devices in a fixed order.
func recipes() []*recipe {
	cfg := workload.TrainConfig{Light: true}
	return []*recipe{
		{
			name: "fdc",
			build: func() (machine.Device, []machine.AttachOption) {
				return fdc.New(fdc.Options{}), []machine.AttachOption{machine.WithPIO(0, fdc.PortCount)}
			},
			train: func(d *sedspec.Driver) error { return workload.TrainFDC(d, cfg) },
			newGuest: func(d *sedspec.Driver, rng *simclock.Rand) *guest {
				g := fdc.NewGuest(d)
				return &guest{
					prepare: func() error {
						if err := g.Reset(); err != nil {
							return err
						}
						return g.Specify()
					},
					op: func() error { return workload.FDCOp(g, rng) },
					transfer: func(write bool, n int) (int, error) {
						moved := 0
						for sectors := n / fdc.SectorSize; sectors > 0; {
							span := min(sectors, 8)
							var err error
							if write {
								err = g.WriteSectors(0, 0, 1, byte(span))
							} else {
								err = g.ReadSectors(0, 0, 1, byte(span))
							}
							if err != nil {
								return moved, err
							}
							sectors -= span
							moved += span * fdc.SectorSize
						}
						return moved, nil
					},
				}
			},
		},
		{
			name: "ehci",
			build: func() (machine.Device, []machine.AttachOption) {
				return ehci.New(ehci.Options{}), []machine.AttachOption{machine.WithMMIO(0, ehci.RegionSize)}
			},
			train: func(d *sedspec.Driver) error { return workload.TrainEHCI(d, cfg) },
			newGuest: func(d *sedspec.Driver, rng *simclock.Rand) *guest {
				g := ehci.NewGuest(d)
				return &guest{
					prepare: func() error { return g.NoDataRequest(ehci.ReqSetConfig, 1) },
					op:      func() error { return workload.EHCIOp(g, rng) },
					transfer: func(write bool, n int) (int, error) {
						moved := 0
						for n > 0 {
							chunk := min(n, 3072)
							var err error
							if write {
								err = g.ControlOut(ehci.ReqClearFeature, 0, make([]byte, chunk))
							} else {
								err = g.ControlIn(ehci.ReqGetDescriptor, 0x0200, uint16(chunk))
							}
							if err != nil {
								return moved, err
							}
							n -= chunk
							moved += chunk
						}
						return moved, nil
					},
					burst: func(k int) (int, error) { return ehciBurst(d, g, k) },
				}
			},
		},
		{
			name: "pcnet",
			build: func() (machine.Device, []machine.AttachOption) {
				return pcnet.New(pcnet.Options{}), []machine.AttachOption{machine.WithPIO(0, pcnet.PortCount)}
			},
			train: func(d *sedspec.Driver) error { return workload.TrainPCNet(d, cfg) },
			newGuest: func(d *sedspec.Driver, rng *simclock.Rand) *guest {
				g := pcnet.NewGuest(d)
				return &guest{
					prepare: func() error { return g.Setup(0) },
					op:      func() error { return workload.PCNetOp(g, rng) },
					transfer: func(write bool, n int) (int, error) {
						moved := 0
						for n > 0 {
							chunk := min(n, 1500)
							var err error
							if write {
								err = g.Transmit(make([]byte, chunk))
							} else {
								if err = g.ProvideRx(uint16(rng.Intn(int(g.RxLen)))); err == nil {
									err = g.InjectWireFrame(make([]byte, chunk))
								}
							}
							if err != nil {
								return moved, err
							}
							n -= chunk
							moved += chunk
						}
						return moved, nil
					},
					burst: func(k int) (int, error) {
						frames := make([][]byte, k)
						moved := 0
						for i := range frames {
							frames[i] = make([]byte, 64+rng.Intn(1437))
							moved += len(frames[i])
						}
						_, err := g.TransmitBurst(frames...)
						return moved, err
					},
				}
			},
		},
		{
			name: "sdhci",
			build: func() (machine.Device, []machine.AttachOption) {
				return sdhci.New(sdhci.Options{}), []machine.AttachOption{machine.WithMMIO(0, sdhci.RegionSize)}
			},
			train: func(d *sedspec.Driver) error { return workload.TrainSDHCI(d, cfg) },
			newGuest: func(d *sedspec.Driver, rng *simclock.Rand) *guest {
				g := sdhci.NewGuest(d)
				return &guest{
					prepare: func() error { return g.InitCard() },
					op:      func() error { return workload.SDHCIOp(g, rng) },
					transfer: func(write bool, n int) (int, error) {
						moved := 0
						for blocks := n / 512; blocks > 0; {
							span := min(blocks, 8)
							if err := g.Transfer(write, 512, uint16(span)); err != nil {
								return moved, err
							}
							blocks -= span
							moved += span * 512
						}
						return moved, nil
					},
				}
			},
		},
		{
			name: "scsi",
			build: func() (machine.Device, []machine.AttachOption) {
				return scsi.New(scsi.Options{}), []machine.AttachOption{machine.WithPIO(0, scsi.PortCount)}
			},
			train: func(d *sedspec.Driver) error { return workload.TrainSCSI(d, cfg) },
			newGuest: func(d *sedspec.Driver, rng *simclock.Rand) *guest {
				g := scsi.NewGuest(d)
				return &guest{
					prepare: func() error { return g.TestUnitReady() },
					op:      func() error { return workload.SCSIOp(g, rng) },
					transfer: func(write bool, n int) (int, error) {
						moved := 0
						for blocks := n / 512; blocks > 0; {
							span := min(blocks, 16)
							var err error
							if write {
								err = g.Write10(0, byte(span))
							} else {
								err = g.Read10(0, byte(span))
							}
							if err != nil {
								return moved, err
							}
							blocks -= span
							moved += span * 512
						}
						return moved, nil
					},
					burst: func(k int) (int, error) {
						cdbs := make([][]byte, k)
						for i := range cdbs {
							cdbs[i] = []byte{scsi.ScsiTestUnitReady, 0, 0, 0, 0, 0}
						}
						_, err := g.SelectBurst(cdbs...)
						return 6 * k, err
					},
				}
			},
		},
	}
}

// ehciSetupBuf is where the EHCI guest driver keeps its SETUP packet
// and data buffers in guest memory.
const ehciSetupBuf = 0x8000

// ehciBurst runs k GET_DESCRIPTOR(device) control transfers as one
// schedule sweep through ehci.Guest.RunBurst, then acknowledges the
// completion status like the per-transfer path does.
func ehciBurst(d *sedspec.Driver, g *ehci.Guest, k int) (int, error) {
	setup := make([]byte, 8)
	setup[0], setup[1] = 0x80, ehci.ReqGetDescriptor
	binary.LittleEndian.PutUint16(setup[2:], 0x0100)
	binary.LittleEndian.PutUint16(setup[6:], 18)
	if err := d.Machine().Mem.Write(ehciSetupBuf, setup); err != nil {
		return 0, err
	}
	chains := make([][]ehci.TD, k)
	for i := range chains {
		chains[i] = []ehci.TD{
			{Pid: ehci.PidSetup, Len: 8, Buffer: ehciSetupBuf},
			{Pid: ehci.PidIn, Len: 18, Buffer: ehciSetupBuf + 0x100, IOC: true},
		}
	}
	if _, err := g.RunBurst(chains...); err != nil {
		return 0, err
	}
	return 18 * k, g.AckStatus()
}

// recipeByName returns the named recipe.
func recipeByName(name string) (*recipe, error) {
	for _, r := range recipes() {
		if r.name == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("unknown device %q", name)
}
