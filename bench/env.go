package main

import (
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// maxClients is the client-concurrency ceiling of every workload: the
// sandbox has two cores, and more clients than cores would measure the
// scheduler.
const maxClients = 2

// clientCount clamps the client goroutines to min(nproc, 2).
func clientCount() int {
	if n := runtime.NumCPU(); n < maxClients {
		return n
	}
	return maxClients
}

// workloadClients is the closed-loop client count of a workload: two
// keep-alive connections on warm_serve (a dashboard's steady state), one
// everywhere else (an analyst waiting for each answer), never more than the
// cores allow.
func workloadClients(workload string) int {
	if workload == "warm_serve" {
		return clientCount()
	}
	return 1
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// retainedHeapMB is the live heap after two collections (the second frees
// what finalizers of the first released).
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runMeta is recorded with every result so that runs from different
// environments are never compared by accident.
type runMeta struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Clients     int    `json:"clients"`
	DegradedEnv bool   `json:"degraded_env"`
}

func newRunMeta() runMeta {
	return runMeta{
		Commit:      gitCommit(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Clients:     clientCount(),
		DegradedEnv: runtime.NumCPU() < maxClients,
	}
}

// gitCommit names the measured commit; a checkout without git metadata (the
// driver's) reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
