package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo records where a ledger was measured. It is informational:
// nothing is gated on it.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func readHostInfo() hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "" when the file or the key is missing (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSKB is this process's resident-set high-water mark in KiB (0
// where /proc is unavailable).
func peakRSSKB() uint64 {
	v := strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB")
	kb, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64) // 0 on a host without VmHWM
	return kb
}

// calibSink keeps the calibration kernel's result live.
var calibSink uint64

// calibrate times a fixed pure-Go integer kernel (an xorshift stream
// folded through multiply-add; no memory traffic, no allocation) and
// returns milliseconds. Recorded beside every rep so that ledgers from
// different hosts, or from one host that drifted, can be read as ratios
// to it.
func calibrate() float64 {
	const iters = 1 << 24
	start := time.Now()
	x, acc := uint64(0x9E3779B97F4A7C15), uint64(0)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc = acc*6364136223846793005 + x
	}
	calibSink = acc
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
