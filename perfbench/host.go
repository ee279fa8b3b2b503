package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"nbody/internal/simd"
)

// host identifies the machine a result was measured on, so results are
// compared only like against like.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	SIMD       string `json:"simd"`
}

func fingerprint(gomaxprocs int) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs,
		Go:         runtime.Version(),
		SIMD:       simd.Active(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSKB is this process's peak resident set in KiB.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

// procPeakRSSKB is another process's peak resident set in KiB (VmHWM), 0
// when it cannot be read.
func procPeakRSSKB(pid int) int64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}
