// Package workload generates the I/O interactions of SEDSpec's evaluation:
// the benign training samples that execution specifications are learned
// from (paper §IV-C), and the runtime interaction modes of the
// false-positive study (sequential, random, random-with-delay; §VII-B1).
//
// Training sweeps environment configurations the way the paper does: for
// storage devices, filesystem format, volume mode, and partition/cache
// sizes; for network devices, IP/MAC addressing, interrupt mode, jumbo
// frames, and flow control. Each configuration shifts the command mix and
// parameter ranges so the learned specification covers the device's
// legitimate behaviour envelope.
//
// Targets binds each evaluated device to its training routine and a live
// guest Session (benign, rare and bulk-transfer operations); the
// evaluation harness, the CLIs and the daemon all draw devices from it.
package workload

import "sedspec/internal/simclock"

// StorageEnv is one storage training environment (paper §IV-C).
type StorageEnv struct {
	Format       string // FAT32, NTFS, EXT4
	Mode         string // RAID, LVM, JBOD
	PartitionMiB int
	CacheKiB     int
}

// StorageEnvs returns the storage environment sweep.
func StorageEnvs() []StorageEnv {
	var envs []StorageEnv
	for _, f := range []string{"FAT32", "NTFS", "EXT4"} {
		for _, m := range []string{"RAID", "LVM", "JBOD"} {
			envs = append(envs, StorageEnv{
				Format:       f,
				Mode:         m,
				PartitionMiB: 64 * (1 + len(envs)%3),
				CacheKiB:     128 << (len(envs) % 3),
			})
		}
	}
	return envs
}

// NetworkEnv is one network training environment (paper §IV-C).
type NetworkEnv struct {
	IP          uint32
	MAC         [6]byte
	Gateway     uint32
	IntrMode    int // 0 = line IRQ, 1 = polling mix
	JumboFrames bool
	FlowControl bool
}

// NetworkEnvs returns the network environment sweep.
func NetworkEnvs() []NetworkEnv {
	var envs []NetworkEnv
	for i := 0; i < 8; i++ {
		envs = append(envs, NetworkEnv{
			IP:          0x0A000002 + uint32(i),
			MAC:         [6]byte{0x52, 0x54, 0, 0, byte(i >> 4), byte(i)},
			Gateway:     0x0A000001,
			IntrMode:    i % 2,
			JumboFrames: i&2 != 0,
			FlowControl: i&4 != 0,
		})
	}
	return envs
}

// Mode is a runtime interaction mode of the false-positive study.
type Mode uint8

const (
	// Sequential follows a fixed order of read and write operations.
	Sequential Mode = iota + 1
	// Random picks operations uniformly.
	Random
	// RandomDelay picks operations uniformly with random delays between
	// them.
	RandomDelay
)

func (m Mode) String() string {
	switch m {
	case Sequential:
		return "sequential"
	case Random:
		return "random"
	case RandomDelay:
		return "random-with-delay"
	default:
		return "unknown"
	}
}

// Modes lists all interaction modes.
func Modes() []Mode { return []Mode{Sequential, Random, RandomDelay} }

// TrainConfig tunes training-sample generation.
type TrainConfig struct {
	// Seed makes training deterministic across the trace and observation
	// passes.
	Seed uint64
	// Light restricts the sweep for fast unit tests.
	Light bool
}

func (c TrainConfig) rng() *simclock.Rand {
	seed := c.Seed
	if seed == 0 {
		seed = 42
	}
	return simclock.NewRand(seed)
}
