package workload

import (
	"sedspec"
	"sedspec/internal/devices/ehci"
	"sedspec/internal/devices/fdc"
	"sedspec/internal/devices/pcnet"
	"sedspec/internal/devices/scsi"
	"sedspec/internal/devices/sdhci"
	"sedspec/internal/machine"
	"sedspec/internal/simclock"
)

// Session is a live guest bound to one device: one benign operation, one
// rare (legitimate-but-untrained) operation, and a bulk transfer of n
// bytes for the performance figures.
type Session struct {
	Op       func() error
	Rare     func() error
	Transfer func(write bool, n int) error
	// Prepare runs device bring-up (executed once, before measurement).
	Prepare func() error
}

// Target describes one evaluated device.
type Target struct {
	Name    string
	Storage bool
	// RareWeight tunes the rare-command probability for Table II so FP
	// counts land in the paper's regime.
	RareWeight float64
	Build      func() (machine.Device, []machine.AttachOption)
	Train      sedspec.TrainFunc
	NewSession func(d *sedspec.Driver, rng *simclock.Rand) *Session
}

// Targets returns the five evaluated devices; light selects the shallow
// training corpus.
func Targets(light bool) []*Target {
	cfg := TrainConfig{Light: light}
	return []*Target{
		{
			Name: "fdc", Storage: true, RareWeight: 1.0,
			Build: func() (machine.Device, []machine.AttachOption) {
				return fdc.New(fdc.Options{}), []machine.AttachOption{machine.WithPIO(0, fdc.PortCount)}
			},
			Train: func(d *sedspec.Driver) error { return TrainFDC(d, cfg) },
			NewSession: func(d *sedspec.Driver, rng *simclock.Rand) *Session {
				g := fdc.NewGuest(d)
				return &Session{
					Prepare: func() error {
						if err := g.Reset(); err != nil {
							return err
						}
						return g.Specify()
					},
					Op:   func() error { return FDCOp(g, rng) },
					Rare: func() error { return FDCRareOp(g, rng) },
					Transfer: func(write bool, n int) error {
						sectors := n / fdc.SectorSize
						for sectors > 0 {
							span := sectors
							if span > 8 {
								span = 8
							}
							var err error
							if write {
								err = g.WriteSectors(0, 0, 1, byte(span))
							} else {
								err = g.ReadSectors(0, 0, 1, byte(span))
							}
							if err != nil {
								return err
							}
							sectors -= span
						}
						return nil
					},
				}
			},
		},
		{
			Name: "ehci", Storage: true, RareWeight: 1.2,
			Build: func() (machine.Device, []machine.AttachOption) {
				return ehci.New(ehci.Options{}), []machine.AttachOption{machine.WithMMIO(0, ehci.RegionSize)}
			},
			Train: func(d *sedspec.Driver) error { return TrainEHCI(d, cfg) },
			NewSession: func(d *sedspec.Driver, rng *simclock.Rand) *Session {
				g := ehci.NewGuest(d)
				return &Session{
					Prepare: func() error { return g.NoDataRequest(ehci.ReqSetConfig, 1) },
					Op:      func() error { return EHCIOp(g, rng) },
					Rare:    func() error { return EHCIRareOp(g, rng) },
					Transfer: func(write bool, n int) error {
						for n > 0 {
							chunk := n
							if chunk > 3072 {
								chunk = 3072
							}
							var err error
							if write {
								err = g.ControlOut(ehci.ReqClearFeature, 0, make([]byte, chunk))
							} else {
								err = g.ControlIn(ehci.ReqGetDescriptor, 0x0200, uint16(chunk))
							}
							if err != nil {
								return err
							}
							n -= chunk
						}
						return nil
					},
				}
			},
		},
		{
			Name: "pcnet", Storage: false, RareWeight: 1.0,
			Build: func() (machine.Device, []machine.AttachOption) {
				return pcnet.New(pcnet.Options{}), []machine.AttachOption{machine.WithPIO(0, pcnet.PortCount)}
			},
			Train: func(d *sedspec.Driver) error { return TrainPCNet(d, cfg) },
			NewSession: func(d *sedspec.Driver, rng *simclock.Rand) *Session {
				g := pcnet.NewGuest(d)
				return &Session{
					Prepare: func() error { g.RxLen = 4; return g.Setup(0) },
					Op:      func() error { return PCNetOp(g, rng) },
					Rare:    func() error { return PCNetRareOp(g, rng) },
					Transfer: func(write bool, n int) error {
						for n > 0 {
							chunk := n
							if chunk > 1500 {
								chunk = 1500
							}
							var err error
							if write {
								err = g.Transmit(make([]byte, chunk))
							} else {
								slot := uint16(rng.Intn(int(g.RxLen)))
								if err = g.ProvideRx(slot); err != nil {
									return err
								}
								err = g.InjectWireFrame(make([]byte, chunk))
							}
							if err != nil {
								return err
							}
							n -= chunk
						}
						return nil
					},
				}
			},
		},
		{
			Name: "sdhci", Storage: true, RareWeight: 1.5,
			Build: func() (machine.Device, []machine.AttachOption) {
				return sdhci.New(sdhci.Options{}), []machine.AttachOption{machine.WithMMIO(0, sdhci.RegionSize)}
			},
			Train: func(d *sedspec.Driver) error { return TrainSDHCI(d, cfg) },
			NewSession: func(d *sedspec.Driver, rng *simclock.Rand) *Session {
				g := sdhci.NewGuest(d)
				return &Session{
					Prepare: func() error { return g.InitCard() },
					Op:      func() error { return SDHCIOp(g, rng) },
					Rare:    func() error { return SDHCIRareOp(g, rng) },
					Transfer: func(write bool, n int) error {
						blocks := n / 512
						for blocks > 0 {
							span := blocks
							if span > 8 {
								span = 8
							}
							if err := g.Transfer(write, 512, uint16(span)); err != nil {
								return err
							}
							blocks -= span
						}
						return nil
					},
				}
			},
		},
		{
			Name: "scsi", Storage: true, RareWeight: 0.8,
			Build: func() (machine.Device, []machine.AttachOption) {
				return scsi.New(scsi.Options{}), []machine.AttachOption{machine.WithPIO(0, scsi.PortCount)}
			},
			Train: func(d *sedspec.Driver) error { return TrainSCSI(d, cfg) },
			NewSession: func(d *sedspec.Driver, rng *simclock.Rand) *Session {
				g := scsi.NewGuest(d)
				return &Session{
					Prepare: func() error { return g.TestUnitReady() },
					Op:      func() error { return SCSIOp(g, rng) },
					Rare:    func() error { return SCSIRareOp(g, rng) },
					Transfer: func(write bool, n int) error {
						blocks := n / 512
						for blocks > 0 {
							span := blocks
							if span > 16 {
								span = 16
							}
							var err error
							if write {
								err = g.Write10(0, byte(span))
							} else {
								err = g.Read10(0, byte(span))
							}
							if err != nil {
								return err
							}
							blocks -= span
						}
						return nil
					},
				}
			},
		},
	}
}

// TargetByName returns the named target, or nil.
func TargetByName(name string, light bool) *Target {
	for _, t := range Targets(light) {
		if t.Name == name {
			return t
		}
	}
	return nil
}
