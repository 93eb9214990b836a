package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Open creates every requested output file before the run starts, so a bad
// path fails in Open rather than in Close after a full run.
func TestCLIOpenFailsFastOnBadPaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "out")
	for _, c := range []struct {
		flag string
		cli  CLI
	}{
		{"-events", CLI{EventsPath: bad}},
		{"-tracefile", CLI{TracePath: bad}},
		{"-metrics", CLI{MetricsPath: bad}},
		{"-tsdb", CLI{TSDBPath: bad}},
		{"-provenance", CLI{ProvPath: bad}},
		{"-cpuprofile", CLI{CPUProfile: bad}},
		{"-memprofile", CLI{MemProfile: bad}},
	} {
		cli := c.cli
		if err := cli.Open(); err == nil {
			cli.Close()
			t.Errorf("%s %s: Open succeeded, want the create error", c.flag, bad)
		}
	}
}

// Every output file exists as soon as Open returns, and Close fills the
// ones written at exit.
func TestCLIOpenCreatesFiles(t *testing.T) {
	dir := t.TempDir()
	cli := CLI{
		MetricsPath: filepath.Join(dir, "m.txt"),
		TSDBPath:    filepath.Join(dir, "ts.json"),
		MemProfile:  filepath.Join(dir, "mem.pprof"),
	}
	if err := cli.Open(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cli.MetricsPath, cli.TSDBPath, cli.MemProfile} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("after Open: %v", err)
		}
	}
	s := cli.Sinks()
	if s.Metrics == nil || s.TS == nil || s.Events != nil || s.Trace != nil || s.Prov != nil || s.Spans != nil {
		t.Fatalf("Sinks() = %+v, want only Metrics and TS", s)
	}
	s.Metrics.Counter("runs").Add(2)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cli.MetricsPath, cli.TSDBPath, cli.MemProfile} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("after Close: %s is empty or missing (%v)", p, err)
		}
	}
}

// -metrics - dumps the registry to stderr and creates no file.
func TestCLIMetricsToStderr(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = old }()

	cli := CLI{MetricsPath: "-"}
	if err := cli.Open(); err != nil {
		t.Fatal(err)
	}
	cli.Sinks().Metrics.Counter("runs").Add(2)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	os.Stderr = old
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "runs") {
		t.Errorf("stderr = %q, want the metrics dump", out)
	}
	if _, err := os.Stat("-"); err == nil {
		t.Error(`-metrics - created a file named "-"`)
	}
}
