package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// startProfile starts a CPU profile into memory; the returned function
// stops it and returns the profile bytes (gzipped pprof protobuf).
func startProfile() func() []byte {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another profile is running; a missing profile shows up as
		// zero prof.* shares rather than a failed run.
		return func() []byte { return nil }
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}
}

// selfSharesByPackage returns each Go package's share of the flat (self)
// time in the CPU profile at path, in percent, from `go tool pprof -top`
// with no node dropped.
func selfSharesByPackage(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	shares := map[string]float64{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 1 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof %s: row %q: %w", path, line, err)
		}
		shares[packageOf(f[5])] += pct
	}
	return shares, nil
}

// packageOf maps a symbol such as "libcrpm/internal/core.(*Container).OnWrite"
// to its package path.
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}
