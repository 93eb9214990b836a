package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
// paper's workloads — ends the run with exit status 2 and exactly one
// "figures:" line naming the problem, never a panic.
func TestBadInputFailsWithOneLine(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "4", "-cell", "fig4:99"},
		{"-fig", "12", "-cell", "fig12:99"},
		{"-fig", "5", "-mesh", "2x2"},
		{"-table", "1", "-mesh", "3x3"},
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
