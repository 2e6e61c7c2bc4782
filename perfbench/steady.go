package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSteady is the steadiness check: two independent sets of
// steadyRunsPerSet runs of every workload in BENCHMARK.json, of this
// build, each run BENCHMARK.json's run_seconds long, with its own seed
// and in its own process, interleaved so drift in the host hits both sets
// alike. For each workload × end-to-end metric it reports each set's
// median and spread, and whether the sets agree within BENCHMARK.json's
// bound: every spread within the bound, and the second set's median
// within the bound of the first's. It fails when any pair disagrees, when
// any run is incorrect, or when the host stamps differ.
func runSteady(out io.Writer, root, work string) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	const sets, runs = 2, steadyRunsPerSet
	seconds := bf.RunSeconds
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] lists one value per run.
	values := make([]map[string]map[string][]float64, sets)
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, n := range names {
			values[s][n] = map[string][]float64{}
		}
	}
	var firstHost *hostStamp
	ok := true
	for i := 0; i < runs; i++ {
		for _, n := range names {
			for s := 0; s < sets; s++ {
				seed := uint64(1 + i + s*steadySeedStride)
				rep, host, err := childRun(exe, root, work, n, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", n, seed, err)
				}
				if firstHost == nil {
					firstHost = &host
				} else if !sameHost(*firstHost, host) || firstHost.Source != host.Source {
					return fmt.Errorf("%s seed %d: host stamp changed during the check", n, seed)
				}
				if !rep.Correct || rep.Failed != 0 {
					ok = false
				}
				fmt.Fprintf(out, "set %d %-22s seed %-4d correct %-5v", s+1, n, seed, rep.Correct)
				for _, m := range bf.EndToEnd {
					v := rep.Metrics[m.Name].Value
					values[s][n][m.Name] = append(values[s][n][m.Name], v)
					fmt.Fprintf(out, " %s=%.4g", m.Name, v)
				}
				fmt.Fprintln(out)
			}
		}
	}

	fmt.Fprintf(out, "\n%-22s %-20s %6s", "workload", "metric", "bound")
	for s := 0; s < sets; s++ {
		fmt.Fprintf(out, " %12s %7s", fmt.Sprintf("median%d", s+1), fmt.Sprintf("spread%d", s+1))
	}
	fmt.Fprintf(out, " %7s %s\n", "shift", "verdict")
	for _, n := range names {
		for _, m := range bf.EndToEnd {
			v := verdictFor(m.Name, m.Bound, values, n)
			if !v.agree {
				ok = false
			}
			fmt.Fprintf(out, "%-22s %-20s %6.3f", n, m.Name, m.Bound)
			for s := range v.medians {
				fmt.Fprintf(out, " %12.6g %7.4f", v.medians[s], v.spreads[s])
			}
			fmt.Fprintf(out, " %7.4f %s\n", v.shift, v.label())
		}
	}
	if !ok {
		return errors.New("steadiness check failed: see the table above")
	}
	fmt.Fprintln(out, "steady: every set agrees within its bounds")
	return nil
}

// verdict is one workload × metric outcome of the steadiness check.
type verdict struct {
	medians, spreads []float64
	shift            float64 // largest |median − first median| / first median
	agree, tight     bool    // within the bound; within a third of it
}

func (v verdict) label() string {
	switch {
	case !v.agree:
		return "DISAGREE"
	case !v.tight:
		return "agree (above a third of the bound)"
	}
	return "agree"
}

func verdictFor(name string, bound float64, values []map[string]map[string][]float64, wl string) verdict {
	v := verdict{agree: true, tight: true}
	for s := range values {
		xs := values[s][wl][name]
		med, sp := median(xs), spread(xs)
		if math.IsNaN(sp) { // a zero median: only an all-zero metric
			sp = 0
		}
		v.medians = append(v.medians, med)
		v.spreads = append(v.spreads, sp)
		v.agree = v.agree && sp <= bound
		v.tight = v.tight && sp < bound/3
		if s > 0 && v.medians[0] != 0 {
			shift := math.Abs(med-v.medians[0]) / math.Abs(v.medians[0])
			v.shift = max(v.shift, shift)
			v.agree = v.agree && shift <= bound
			v.tight = v.tight && shift < bound/3
		}
	}
	return v
}

// childRun runs one timed run in a fresh process and parses its output.
func childRun(exe, root, work, name string, seed uint64, seconds int) (report, hostStamp, error) {
	var rep report
	var host hostStamp
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--root", root, "--work", work)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return rep, host, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		if h, ok := strings.CutPrefix(line, "host "); ok {
			if err := json.Unmarshal([]byte(h), &host); err != nil {
				return rep, host, fmt.Errorf("host line: %w", err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return rep, host, fmt.Errorf("result line: %w", err)
	}
	return rep, host, nil
}
