package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers are the layers whose share of the traced run's CPU profile is
// reported, in report order. Each simulator layer is one package under
// internal/; the runtime is split into its map, allocator and collector
// code; "trace" is the benchmark's own timing (its hook and clock reads),
// and everything else falls into "other".
var cpuLayers = []string{
	"sim", "network", "cache", "proto", "core", "fullmap", "classical",
	"duplication", "writeonce", "software", "directory", "memory", "system",
	"memtrace", "tracegen", "workload", "obs", "sweep", "mcheck",
	"runtime.map", "runtime.malloc", "runtime.gc", "trace", "other",
}

// runtimeLayers assigns runtime functions to layers by name prefix.
var runtimeLayers = []struct{ layer, prefix string }{
	{"runtime.map", "map"}, {"runtime.map", "makemap"}, {"runtime.map", "memhash"},
	{"runtime.map", "aeshash"}, {"runtime.map", "strhash"},
	{"runtime.malloc", "mallocgc"}, {"runtime.malloc", "newobject"},
	{"runtime.malloc", "newarray"}, {"runtime.malloc", "makeslice"},
	{"runtime.malloc", "growslice"}, {"runtime.malloc", "nextFreeFast"},
	{"runtime.malloc", "heapSetType"}, {"runtime.malloc", "(*mcache)"},
	{"runtime.malloc", "(*mcentral)"}, {"runtime.malloc", "(*mheap)"},
	{"runtime.malloc", "memclrNoHeapPointers"},
	{"runtime.gc", "gc"}, {"runtime.gc", "scanobject"}, {"runtime.gc", "greyobject"},
	{"runtime.gc", "markroot"}, {"runtime.gc", "(*gcWork)"}, {"runtime.gc", "findObject"},
	{"runtime.gc", "wbBuf"}, {"runtime.gc", "bulkBarrier"}, {"runtime.gc", "(*mspan)"},
	{"runtime.gc", "sweepone"}, {"runtime.gc", "(*gcBits)"}, {"runtime.gc", "(*markBits)"},
	{"trace", "nanotime"},
}

// layerOf maps a fully qualified Go function name, as it appears in a
// profile ("twobit/internal/sim.(*Kernel).Run", "runtime.mallocgc"), to
// the layer its CPU time is charged to.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	name := strings.TrimPrefix(fn, pkg+".")
	switch {
	case strings.HasPrefix(pkg, "twobit/internal/"):
		rest := strings.TrimPrefix(pkg, "twobit/internal/")
		for _, l := range cpuLayers {
			if l == rest {
				return l
			}
		}
	case pkg == "main", pkg == "time":
		return "trace"
	case pkg == "internal/runtime/maps", pkg == "internal/abi" && strings.HasPrefix(name, "(*SwissMapType)"):
		return "runtime.map"
	case pkg == "runtime":
		for _, r := range runtimeLayers {
			if strings.HasPrefix(name, r.prefix) {
				return r.layer
			}
		}
	}
	return "other"
}

// packageOf returns the import path part of a function name: everything
// up to the first dot after the last slash.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerShares runs `go tool pprof -top` over the CPU profile in file and
// returns each layer's share of the sampled CPU time. pprof charges a
// sample's time (the flat column) to its leaf frame, the innermost
// function, inlined or not.
func layerShares(file string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0",
		"-nodefraction=0", "-edgefraction=0", "-unit=ns", file)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop groups the flat time of each function row of a
// `pprof -top -unit=ns` listing by layer,
//
//	      flat  flat%   sum%        cum   cum%
//	520000000ns 13.83% 13.83% 520000000ns 13.83%  runtime.nanotime (inline)
//
// and returns each layer's share of the total. A profile with no samples
// (the header but no rows) yields an empty map.
func parseTop(listing []byte) (map[string]float64, error) {
	byLayer := map[string]float64{}
	total := 0.0
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(listing))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof row %q: too few columns", sc.Text())
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		byLayer[layerOf(f[5])] += ns
		total += ns
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !rows {
		return nil, fmt.Errorf("pprof listing has no table: %q", listing)
	}
	if total == 0 {
		return map[string]float64{}, nil
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer, nil
}
