package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyPlan is a one-run campaign, enough to reach every error path.
const tinyPlan = `{"name":"tiny","protocols":["two-bit"],"qs":[0.05],"ws":[0.2],"procs":[2],"replicates":1,"refs_per_proc":10,"root_seed":1}`

// TestCLIErrorsGolden runs the command on bad input and compares its
// exit status and output with testdata/<case>.golden, the temporary
// directory's path replaced by $TMP. Set UPDATE_GOLDEN=1 to regenerate.
// None of the cases may run a campaign: a bad -metric or -format is
// refused before any run, so no store appears.
func TestCLIErrorsGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		store string // file the case writes before running, "" for none
	}{
		{name: "unknown_metric", args: []string{"-plan", "$TMP/plan.json", "-out", "$TMP/out.jsonl", "-metric", "nope"}},
		{name: "unknown_format", args: []string{"-plan", "$TMP/plan.json", "-out", "$TMP/out.jsonl", "-format", "xml"}},
		{name: "no_plan", args: []string{"-out", "$TMP/out.jsonl"}},
		{name: "missing_plan", args: []string{"-plan", "$TMP/absent.json", "-out", "$TMP/out.jsonl"}},
		{
			name:  "corrupt_store",
			args:  []string{"-plan", "$TMP/plan.json", "-out", "$TMP/out.jsonl", "-resume", "-quiet"},
			store: "{\"run_id\":1}\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "plan.json"), []byte(tinyPlan), 0o644); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(dir, "out.jsonl")
			if tc.store != "" {
				if err := os.WriteFile(out, []byte(tc.store), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = strings.ReplaceAll(a, "$TMP", dir)
			}
			var stdout, stderr bytes.Buffer
			code := cli(args, &stdout, &stderr)
			got := []byte(strings.ReplaceAll(fmt.Sprintf("exit %d\n--- stdout\n%s--- stderr\n%s", code, stdout.String(), stderr.String()), dir, "$TMP"))

			path := filepath.Join("testdata", tc.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden output (set UPDATE_GOLDEN=1 to regenerate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output drifted from %s:\n%s\nwant:\n%s", path, got, want)
			}
			if data, err := os.ReadFile(out); tc.store == "" && err == nil {
				t.Errorf("a refused command wrote a store of %d bytes", len(data))
			}
		})
	}
}
