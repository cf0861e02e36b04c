package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM
// in /proc/self/status) in MiB, or 0 where that file does not exist.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line[len("VmHWM:"):])
		if len(f) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(f[0]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// stealTime returns the CPU time the host hypervisor has taken from this
// machine's virtual CPUs so far (the steal column of /proc/stat, summed
// over CPUs), or 0 where that is not reported. A timed phase that saw
// steal ran on a machine busy with other guests.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(string(f[8]), 64)
	if err != nil {
		return 0
	}
	// /proc/stat counts in USER_HZ, which is 100 on Linux.
	return time.Duration(ticks * float64(time.Second) / 100)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
