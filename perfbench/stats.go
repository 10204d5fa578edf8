package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs must be sorted; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// sortedQuantile sorts a copy of xs and returns its q-quantile.
func sortedQuantile(xs []float64, q float64) float64 {
	c := slices.Clone(xs)
	slices.Sort(c)
	return quantile(c, q)
}

func median(xs []float64) float64 { return sortedQuantile(xs, 0.5) }

// sample is one timed unit of a workload: when it ended (relative to
// the start of measurement), how long it took, and how many units of
// throughput it carried.
type sample struct {
	end   time.Duration
	dur   time.Duration
	count int
	bytes int
}

// rates returns the count and bytes per second of the samples that
// ended within the measured stretch.
func rates(samples []sample, total time.Duration) (perSec, bytesPerSec float64) {
	var n, b float64
	for _, s := range samples {
		if s.end <= total {
			n += float64(s.count)
			b += float64(s.bytes)
		}
	}
	return n / total.Seconds(), b / total.Seconds()
}

// latenciesUs returns the samples' durations in microseconds, sorted.
func latenciesUs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.dur.Seconds() * 1e6
	}
	slices.Sort(out)
	return out
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// fingerprint identifies the host, toolchain and commit of a run.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func hostFingerprint(root string, seed uint64) fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Seed:       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; a checkout exported without .git reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}
