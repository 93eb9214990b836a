package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"jumanji/internal/serve"
	"jumanji/internal/sweep"
)

// TestMain doubles as the command's entry point: the tests re-exec this test
// binary with JUMANJI_SIM_CHILD=1 to run jumanji-sim as a real process, exit
// status and all.
func TestMain(m *testing.M) {
	if os.Getenv("JUMANJI_SIM_CHILD") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runCmd runs jumanji-sim with args and returns its stdout, stderr and exit
// status.
func runCmd(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "JUMANJI_SIM_CHILD=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// specs builds and normalizes the specs args describe, as serve.Main does.
// The crash-safety flags are registered too: repro lines carry them.
func specs(t *testing.T, args []string) []serve.Spec {
	t.Helper()
	fs := flag.NewFlagSet("jumanji-sim", flag.ContinueOnError)
	build := flags(fs)
	var resil sweep.CLI
	resil.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sps, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sps {
		if _, err := serve.Builtins().Normalize(&sps[i]); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	return sps
}

// Bad outside input — an unknown app, an unsupported VM split, a malformed
// or oversized mesh — ends the run with exit status 2 and exactly one
// "jumanji-sim:" line naming the problem, before anything runs.
func TestBadInputFailsWithOneLine(t *testing.T) {
	for _, args := range [][]string{
		{"-lc", "foo"},
		{"-vms", "7"},
		{"-mesh", "5x4junk"},
		{"-mesh", "400x400"},
		{"-shard", "4x"},
		{"-load", "medium"},
		{"-lc", "datacenter", "-mesh", "4x4"},
	} {
		stdout, stderr, code := runCmd(t, args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		lines := strings.Split(strings.TrimRight(stderr, "\n"), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "jumanji-sim: ") {
			t.Errorf("%v: stderr = %q, want one jumanji-sim: line", args, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: wrote %d bytes to stdout", args, len(stdout))
		}
	}
}

// TestDegradedRunFlushesSinks: a run with a failed cell still writes its
// metrics and flight-recorder dump, and exits 1 with the failure report.
func TestDegradedRunFlushesSinks(t *testing.T) {
	dir := t.TempDir()
	metrics, ts := filepath.Join(dir, "m"), filepath.Join(dir, "t")
	_, stderr, code := runCmd(t, "-design", "all", "-epochs", "8", "-warmup", "2",
		"-keep-going", "-chaos", "panic-cell=2", "-metrics", metrics, "-tsdb", ts)
	if code != 1 || !strings.Contains(stderr, "FAILED cell") {
		t.Fatalf("exit status %d, stderr:\n%s\nwant 1 with a FAILED cell report", code, stderr)
	}
	for _, p := range []string{metrics, ts} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty file", filepath.Base(p), err)
		}
	}
}

// TestStdoutIsRunnerOutput: the command prints exactly the compare runner's
// bytes for the spec its flags build — the bytes jumanji-serve returns.
func TestStdoutIsRunnerOutput(t *testing.T) {
	base := []string{"-design", "all", "-epochs", "8", "-warmup", "2", "-seed", "3"}
	for _, extra := range [][]string{nil, {"-apps"}, {"-json"}, {"-json", "-apps"}} {
		args := append(append([]string(nil), base...), extra...)
		stdout, stderr, code := runCmd(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit status %d\n%s", args, code, stderr)
		}
		sp := specs(t, args)[0]
		rn, _ := serve.Builtins().Lookup(sp.Type)
		want, err := rn.Run(&sp, sweep.Env{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stdout != string(want) {
			t.Errorf("%v: stdout differs from the runner's bytes:\n--- stdout\n%s--- runner\n%s", args, stdout, want)
		}
	}
}

// TestReproRoundTrips: the compare runner's repro line, parsed by this
// command's flags, names the spec that failed.
func TestReproRoundTrips(t *testing.T) {
	rn, _ := serve.Builtins().Lookup("compare")
	for _, sp := range []serve.Spec{
		{Type: "compare"},
		{Type: "compare", Design: "all", LC: "datacenter", Load: "low", Router: 3, Mesh: "8x8",
			Shard: "4x4", Apps: true, Format: "json", Epochs: 10, Warmup: 3, Seed: 5},
		{Type: "compare", LC: "mixed", VMs: 12, Epochs: 30, Seed: -2},
	} {
		if err := rn.Validate(&sp); err != nil {
			t.Fatal(err)
		}
		line := rn.Repro(&sp, "compare/Jumanji+Static", 1)
		rest, ok := strings.CutPrefix(line, "jumanji-sim ")
		if !ok {
			t.Fatalf("repro %q does not run jumanji-sim", line)
		}
		args := strings.Fields(rest)
		for i := range args {
			args[i] = strings.Trim(args[i], "'")
		}
		if got := specs(t, args); len(got) != 1 || got[0].Fingerprint() != sp.Fingerprint() {
			t.Errorf("repro %q\nparses to %+v\nwant %s", line, got, sp.Fingerprint())
		}
	}
}
