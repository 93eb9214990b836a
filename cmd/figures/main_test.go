package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"jumanji/internal/serve"
	"jumanji/internal/sweep"
)

// TestMain doubles as the command's entry point: the tests re-exec this test
// binary with FIGURES_CHILD=1 to run figures as a real process, exit status
// and all.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_CHILD") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// Bad outside input — a -cell index past its sweep, a mesh too small for the
// paper's workloads, malformed, or too big to run — ends the run with exit status 2 and exactly one
// "figures:" line naming the problem, never a panic.
func TestBadInputFailsWithOneLine(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "4", "-cell", "fig4:99"},
		{"-fig", "12", "-cell", "fig12:99"},
		{"-fig", "5", "-mesh", "2x2"},
		{"-table", "1", "-mesh", "3x3"},
		{"-fig", "12", "-mesh", "5x4junk"},
		{"-fig", "12", "-mesh", "33x33"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "FIGURES_CHILD=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2", args, err)
		}
		lines := strings.Split(strings.TrimRight(stderr.String(), "\n"), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "figures: ") {
			t.Errorf("%v: stderr = %q, want one figures: line", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", args, stdout.Len())
		}
	}
}

// specs builds and normalizes the specs args describe, as serve.Main does.
// The crash-safety flags are registered too: repro lines carry them.
func specs(t *testing.T, args []string) []serve.Spec {
	t.Helper()
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
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

// TestStdoutIsRunnerOutput: the command prints exactly the figure and table
// runners' bytes for the specs its flags build — the bytes jumanji-serve
// returns.
func TestStdoutIsRunnerOutput(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "8"},
		{"-fig", "12", "-csv"},
		{"-table", "1"},
		{"-table", "2"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "FIGURES_CHILD=1")
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var want []byte
		for _, sp := range specs(t, args) {
			rn, _ := serve.Builtins().Lookup(sp.Type)
			out, err := rn.Run(&sp, sweep.Env{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, out...)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: stdout differs from the runners' bytes:\n--- stdout\n%s--- runners\n%s", args, stdout.Bytes(), want)
		}
	}
}

// TestReproRoundTrips: the figure and table runners' repro lines, parsed by
// this command's flags, name the spec that failed; a spec the flags cannot
// express gets no repro line.
func TestReproRoundTrips(t *testing.T) {
	reg := serve.Builtins()
	for _, sp := range []serve.Spec{
		{Type: "figure", Fig: 12},
		{Type: "figure", Fig: 19, Format: "csv", Seed: 4},
		{Type: "figure", Fig: 8, Mixes: 40, Epochs: 80, Warmup: 25, Mesh: "8x8"},
		{Type: "table", Table: 1, Mesh: "6x6"},
	} {
		rn, err := reg.Normalize(&sp)
		if err != nil {
			t.Fatal(err)
		}
		line := rn.Repro(&sp, "fig12", 3)
		rest, ok := strings.CutPrefix(line, "figures ")
		if !ok {
			t.Fatalf("repro %q does not run figures", line)
		}
		args := strings.Fields(rest)
		for i := range args {
			args[i] = strings.Trim(args[i], "'")
		}
		if got := specs(t, args); len(got) != 1 || got[0].Fingerprint() != sp.Fingerprint() {
			t.Errorf("repro %q\nparses to %+v\nwant %s", line, got, sp.Fingerprint())
		}
	}
	odd := serve.Spec{Type: "figure", Fig: 12, Epochs: 20, Warmup: 5}
	rn, err := reg.Normalize(&odd)
	if err != nil {
		t.Fatal(err)
	}
	if line := rn.Repro(&odd, "fig12", 2); line != "" {
		t.Errorf("a 20/5-epoch figure has repro %q, which reruns another scale; want none", line)
	}
}
