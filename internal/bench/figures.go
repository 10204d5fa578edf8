package bench

import (
	"fmt"
	"io"
	"time"

	"sedspec"
	"sedspec/internal/simclock"
	"sedspec/internal/workload"
)

// PerfPoint is one (device, block size, direction) measurement of
// Figures 3 and 4.
type PerfPoint struct {
	Device   string
	BlockKiB int
	Write    bool
	// Normalized is protected/baseline throughput (Figure 3; 1.0 = no
	// overhead, lower = slower under protection).
	Normalized float64
	// NormalizedLatency is protected/baseline per-operation latency
	// (Figure 4; 1.0 = no overhead, higher = slower).
	NormalizedLatency float64
	BaselineMBps      float64
	ProtectedMBps     float64
}

// measureTransfer times moving totalBytes through the device in
// block-sized operations and returns (seconds, ops).
func measureTransfer(t *workload.Target, protect bool, block, totalBytes int, write bool) (float64, int, error) {
	_, att := setup(t)
	if protect {
		spec, err := learn(t, att)
		if err != nil {
			return 0, 0, err
		}
		sedspec.Protect(att, spec)
	}
	rng := simclock.NewRand(11)
	s := t.NewSession(sedspec.NewDriver(att), rng)
	if err := s.Prepare(); err != nil {
		return 0, 0, err
	}
	// Warm up one block.
	if err := s.Transfer(write, block); err != nil {
		return 0, 0, err
	}

	ops := totalBytes / block
	if ops < 1 {
		ops = 1
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := s.Transfer(write, block); err != nil {
			return 0, 0, fmt.Errorf("bench: transfer %s: %w", t.Name, err)
		}
	}
	return time.Since(start).Seconds(), ops, nil
}

// Figure34 sweeps block sizes for a storage device and reports normalized
// throughput (Figure 3) and latency (Figure 4) of the protected device
// against the unprotected baseline.
func Figure34(t *workload.Target, blockKiB []int, totalMiB int, write bool) ([]PerfPoint, error) {
	var points []PerfPoint
	for _, bk := range blockKiB {
		block := bk << 10
		total := totalMiB << 20
		base, ops, err := measureTransfer(t, false, block, total, write)
		if err != nil {
			return nil, err
		}
		prot, _, err := measureTransfer(t, true, block, total, write)
		if err != nil {
			return nil, err
		}
		mb := float64(ops*block) / (1 << 20)
		points = append(points, PerfPoint{
			Device:            t.Name,
			BlockKiB:          bk,
			Write:             write,
			Normalized:        base / prot,
			NormalizedLatency: prot / base,
			BaselineMBps:      mb / base,
			ProtectedMBps:     mb / prot,
		})
	}
	return points, nil
}

// WriteFigure34 renders the storage performance series.
func WriteFigure34(w io.Writer, points []PerfPoint) {
	fmt.Fprintln(w, "Figures 3/4 — Normalized storage throughput and latency (protected vs baseline)")
	fmt.Fprintf(w, "  %-7s %-9s %-6s %12s %12s %12s %12s\n",
		"Device", "Block", "Dir", "Base MB/s", "Prot MB/s", "Thru (norm)", "Lat (norm)")
	for _, p := range points {
		dir := "read"
		if p.Write {
			dir = "write"
		}
		fmt.Fprintf(w, "  %-7s %6dKiB %-6s %12.1f %12.1f %12.3f %12.3f\n",
			p.Device, p.BlockKiB, dir, p.BaselineMBps, p.ProtectedMBps,
			p.Normalized, p.NormalizedLatency)
	}
}

// NetPoint is one Figure 5 measurement.
type NetPoint struct {
	Series        string // "tcp-up", "tcp-down", "udp-up", "udp-down", "ping"
	BaselineMBps  float64
	ProtectedMBps float64
	// OverheadPct is the bandwidth reduction (or latency increase for
	// ping), in percent.
	OverheadPct float64
}

// netRun pushes frames through PCNet for the given series and returns
// seconds per payload byte.
func netRun(t *workload.Target, protect bool, series string, frames, frameSize int) (float64, error) {
	m, att := setup(t)
	if protect {
		spec, err := learn(t, att)
		if err != nil {
			return 0, err
		}
		sedspec.Protect(att, spec)
	}
	rng := simclock.NewRand(13)
	s := t.NewSession(sedspec.NewDriver(att), rng)
	if err := s.Prepare(); err != nil {
		return 0, err
	}
	_ = m

	up := series == "tcp-up" || series == "udp-up"
	tcp := series == "tcp-up" || series == "tcp-down"
	// Warm-up.
	if err := s.Transfer(up, frameSize); err != nil {
		return 0, err
	}

	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := s.Transfer(up, frameSize); err != nil {
			return 0, fmt.Errorf("bench: net %s: %w", series, err)
		}
		// TCP carries reverse ack traffic every few segments.
		if tcp && i%4 == 3 {
			if err := s.Transfer(!up, 64); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start).Seconds(), nil
}

// Figure5 measures PCNet TCP/UDP bandwidth in both directions and the ping
// round-trip latency, protected against baseline.
func Figure5(frames int) ([]NetPoint, error) {
	t := workload.TargetByName("pcnet", true)
	var points []NetPoint
	const frameSize = 1500

	for _, series := range []string{"tcp-up", "tcp-down", "udp-up", "udp-down"} {
		base, err := netRun(t, false, series, frames, frameSize)
		if err != nil {
			return nil, err
		}
		prot, err := netRun(t, true, series, frames, frameSize)
		if err != nil {
			return nil, err
		}
		mb := float64(frames*frameSize) / (1 << 20)
		points = append(points, NetPoint{
			Series:        series,
			BaselineMBps:  mb / base,
			ProtectedMBps: mb / prot,
			OverheadPct:   (1 - base/prot) * 100, // bandwidth reduction
		})
	}

	// Ping: a small echo out and its reply back, 100 rounds.
	ping := func(protect bool) (float64, error) {
		_, att := setup(t)
		if protect {
			spec, err := learn(t, att)
			if err != nil {
				return 0, err
			}
			sedspec.Protect(att, spec)
		}
		rng := simclock.NewRand(17)
		s := t.NewSession(sedspec.NewDriver(att), rng)
		if err := s.Prepare(); err != nil {
			return 0, err
		}
		start := time.Now()
		const rounds = 100
		for i := 0; i < rounds; i++ {
			if err := s.Transfer(true, 64); err != nil { // echo request out
				return 0, err
			}
			if err := s.Transfer(false, 64); err != nil { // reply in
				return 0, err
			}
		}
		return time.Since(start).Seconds() / rounds, nil
	}
	baseRTT, err := ping(false)
	if err != nil {
		return nil, err
	}
	protRTT, err := ping(true)
	if err != nil {
		return nil, err
	}
	points = append(points, NetPoint{
		Series:        "ping",
		BaselineMBps:  baseRTT * 1e6, // microseconds per round trip
		ProtectedMBps: protRTT * 1e6,
		OverheadPct:   (protRTT - baseRTT) / baseRTT * 100,
	})
	return points, nil
}

// WriteFigure5 renders the network series.
func WriteFigure5(w io.Writer, points []NetPoint) {
	fmt.Fprintln(w, "Figure 5 — PCNet bandwidth and ping latency (protected vs baseline)")
	for _, p := range points {
		if p.Series == "ping" {
			fmt.Fprintf(w, "  %-9s baseline %8.1fµs  protected %8.1fµs  overhead %+.1f%%\n",
				p.Series, p.BaselineMBps, p.ProtectedMBps, p.OverheadPct)
			continue
		}
		fmt.Fprintf(w, "  %-9s baseline %8.1fMB/s protected %8.1fMB/s overhead %+.1f%%\n",
			p.Series, p.BaselineMBps, p.ProtectedMBps, p.OverheadPct)
	}
}
