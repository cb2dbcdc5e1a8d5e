package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// profBuckets maps a Go package to the layer its CPU samples count
// towards. Anything unlisted — the root seer package, the harness, this
// program — is "other".
var profBuckets = map[string]string{
	"seer/internal/machine":   "machine",
	"seer/internal/htm":       "htm",
	"seer/internal/mem":       "mem",
	"seer/internal/policy":    "policy",
	"seer/internal/spinlock":  "policy",
	"seer/internal/core":      "core",
	"seer/internal/stats":     "core",
	"seer/internal/tune":      "core",
	"seer/internal/telemetry": "obs",
	"seer/internal/trace":     "obs",
	"seer/internal/txtrace":   "obs",
	"seer/internal/stamp":     "workload",
	"seer/internal/tmds":      "workload",
	"seer/internal/adversary": "workload",
}

var profBucketNames = []string{"machine", "runtime", "htm", "mem", "policy", "core", "obs", "workload", "other"}

// funcPackage extracts the package path from a symbol as pprof prints it,
// e.g. "seer/internal/machine.(*Ctx).Tick" or "iter.Pull[go.shape.int].func1".
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/') + 1
	if dot := strings.IndexByte(sym[slash:], '.'); dot >= 0 {
		return sym[:slash+dot]
	}
	return sym
}

// profBucket names the layer a package's samples belong to. The Go
// runtime and iter carry the coroutine switching of the event loop.
func profBucket(pkg string) string {
	if b, ok := profBuckets[pkg]; ok {
		return b
	}
	if pkg == "iter" || pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/") {
		return "runtime"
	}
	return "other"
}

// parseTop sums the flat% column of `go tool pprof -top` output by layer.
func parseTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		shares[profBucket(funcPackage(strings.Join(f[5:], " ")))] += pct
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	return shares, nil
}

// profileShares aggregates a CPU profile's flat samples by layer into
// prof.<layer>_pct. It is optional evidence: when `go tool pprof` cannot
// run, the metrics are left out and the note says why.
func profileShares(ctx context.Context, profile string) (metricSet, string) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top",
		"-nodecount=100000", "-nodefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Sprintf("prof.* omitted: go tool pprof: %v", err)
	}
	shares, err := parseTop(out)
	if err != nil {
		return nil, fmt.Sprintf("prof.* omitted: %v", err)
	}
	set := metricSet{}
	for _, b := range profBucketNames {
		set["prof."+b+"_pct"] = single("%", shares[b])
	}
	return set, ""
}
