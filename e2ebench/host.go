package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the stanza recorded with every run, so a number can be read
// against the machine and load it was taken on.
type host struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	Load1Before float64 `json:"load1_before"`
	Load1After  float64 `json:"load1_after"`
	// StealShare is the share of all CPU time during the run that the
	// hypervisor gave to other guests (-1 where /proc/stat is missing).
	// A run with a high share was slowed by its neighbours.
	StealShare float64 `json:"steal_share"`
	stat0      []uint64
}

func hostBefore() host {
	return host{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		Load1Before: load1(),
		stat0:       cpuStat(),
	}
}

func (h *host) after() {
	h.Load1After = load1()
	h.StealShare = -1
	stat1 := cpuStat()
	if len(h.stat0) < 8 || len(stat1) != len(h.stat0) {
		return
	}
	var total uint64
	for i := range stat1 {
		total += stat1[i] - h.stat0[i]
	}
	if total > 0 {
		h.StealShare = float64(stat1[7]-h.stat0[7]) / float64(total)
	}
}

// cpuStat reads the aggregate CPU time counters from /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...), nil elsewhere.
func cpuStat() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// cpuModel reads the first "model name" from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// load1 reads the 1-minute load average (-1 where /proc is missing).
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-memory high-water mark
// (VmHWM) at the current resident size; where that is unsupported the
// mark stays the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-memory high-water mark in MiB: VmHWM since
// the last resetPeakRSS, or the process-lifetime peak from getrusage
// where /proc is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
