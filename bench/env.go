package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded with every result: numbers taken on a shared
// 2-vCPU sandbox mean little without it.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"` // W = min(nproc, 4)
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

// workerCount is W: the scenario worker count, the server's Workers and
// the number of client connections.
func workerCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func readEnvironment() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workerCount(),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     commitHash(),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	return string(line)
}

// commitHash asks git; the PR driver's checkouts are not repositories,
// and there the answer is "unknown".
func commitHash() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// loadAverage returns the 1-minute load average, or -1 where /proc has none.
func loadAverage() float64 {
	fields := strings.Fields(firstLine("/proc/loadavg"))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// loadWarning reports a host busy enough to disturb a run: the sandbox is
// shared, so this warns and never fails.
func loadWarning(load float64) string {
	if limit := float64(runtime.NumCPU()) / 2; load > limit {
		return fmt.Sprintf("1-minute load %.2f exceeds nproc/2 = %.1f: timings may be disturbed", load, limit)
	}
	return ""
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
