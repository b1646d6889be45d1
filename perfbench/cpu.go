package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a process's CPU time and cumulative heap allocation so far.
type usage struct {
	CPU        time.Duration `json:"cpu_ns"`
	AllocBytes uint64        `json:"alloc_bytes"`
}

func readUsage() usage {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return usage{CPU: cpuTime(), AllocBytes: sample[0].Value.Uint64()}
}

func (u usage) sub(v usage) usage {
	return usage{CPU: u.CPU - v.CPU, AllocBytes: u.AllocBytes - v.AllocBytes}
}
