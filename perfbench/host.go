package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostStamp identifies where and on what a result was measured.
// Throughput figures are comparable only between equal stamps.
type hostStamp struct {
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the git commit of the measured tree, or "" outside a
	// git checkout; Source is a digest of its Go sources and module
	// files, which identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func stampHost(root string) hostStamp {
	return hostStamp{
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

// sameHost reports whether throughput measured under a and b may be
// compared: everything but the code itself must match.
func sameHost(a, b hostStamp) bool {
	a.Commit, a.Source = b.Commit, b.Source
	return a == b
}

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

// gitCommit asks git for the commit only when root is itself a git
// checkout, so a copy nested in some other repository is not stamped with
// that repository's commit.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go, go.mod and go.sum file under root (paths
// and contents, in path order), skipping hidden and build directories.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry simply does not contribute
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00" + strconv.Itoa(len(data)) + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
