package serve

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"jumanji/internal/obs"
	"jumanji/internal/obs/statusz"
	"jumanji/internal/sweep"
)

// Flags declares a command's own flags on fs and returns the builder that
// turns them, once parsed, into the specs the command runs. The builder
// returns flag.ErrHelp when the flags select nothing.
type Flags func(fs *flag.FlagSet) func() ([]Spec, error)

// Main is the command-line skeleton of cmd/figures and cmd/jumanji-sim. It
// parses args into the command's own flags plus the shared ones (-parallel,
// the observability sinks of obs.CLI, the live introspection of
// statusz.CLI, the crash safety of sweep.CLI), normalizes the specs the
// command's builder returns with the built-in runners, runs them in order,
// and writes each result's bytes to stdout. A degraded spec is reported
// once, at the end, and the run moves on; single-cell repro completion and
// any other error end it. The journal fingerprint covers the specs and the
// enabled sinks, so a resume must repeat the flags of the run it continues.
//
// It returns the exit status: 0 on success, 1 when a cell failed or was
// skipped, an interrupt drained the run, or a sink or the journal failed,
// 2 on usage errors.
func Main(name string, args []string, flags Flags) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	build := flags(fs)
	parallel := fs.Int("parallel", 0, "worker count for fanning cells (mixes, designs, sweep points) across cores (0 = one per CPU, 1 = serial; output is identical either way)")
	var sinks obs.CLI
	sinks.RegisterFlags(fs)
	var status statusz.CLI
	status.RegisterFlags(fs)
	var resil sweep.CLI
	resil.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	rc, ended := 0, false
	fail := func(code int, err error) int {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		rc = max(rc, code)
		return rc
	}

	specs, err := build()
	if errors.Is(err, flag.ErrHelp) {
		fs.Usage()
		return 2
	}
	if err != nil {
		return fail(2, err)
	}
	reg := Builtins()
	runners := make([]*Runner, len(specs))
	for i := range specs {
		if runners[i], err = reg.Normalize(&specs[i]); err != nil {
			return fail(2, err)
		}
	}
	if status.Addr != "" {
		// The live endpoints are only worth serving with phase timings
		// behind them.
		sinks.SpansOn = true
	}
	if err := sinks.Open(); err != nil {
		return fail(1, err)
	}

	// From here on every exit flushes the journal and the sinks.
	env := sweep.Env{CheckInvariants: resil.Check, Parallel: *parallel, Sinks: sinks.Sinks()}
	env.Progress = status.Tracker()
	cur := 0 // the spec now running, for repro lines
	repro := func(label string, cell int) string { return runners[cur].repro(&specs[cur], label, cell) }
	if env.Engine, env.Chaos, err = resil.Build(specs[0].Seed, fingerprint(env.Sinks, specs...), repro); err != nil {
		fail(2, err)
		ended = true
	} else if err := status.Start(statusz.Info{
		Command: name, Config: statusConfig(specs), Flags: statusz.FlagSummary(fs),
	}, env.Spans); err != nil {
		fail(1, err)
		ended = true
	}
	defer status.Close()
	if env.Engine != nil {
		defer sweep.HandleInterrupt(env.Engine.Stop, os.Stderr)()
	}
	if status.Addr != "" {
		env.PublishMetrics = status.PublishMetrics
		env.PublishTimeseries = status.PublishTimeseries
		if env.Prov != nil {
			env.PublishProvenance = status.PublishProvenance
		}
	}

	for ; cur < len(specs) && !ended; cur++ {
		out, err := runners[cur].Run(&specs[cur], env)
		var rerr *sweep.RunError
		var done *sweep.OnlyDone
		switch {
		case err == nil:
			os.Stdout.Write(out) //nolint:errcheck // as fmt.Printf would
		case errors.As(err, &rerr):
			rc = max(rc, 1) // the report prints once, below
		case errors.As(err, &done):
			fmt.Fprintf(os.Stderr, "%s: cell %s complete\n", name, done.Ref)
			ended = true
		default:
			fail(2, err)
			ended = true
		}
	}

	for _, flush := range []func() error{resil.Close, sinks.Close} {
		if err := flush(); err != nil {
			fail(1, err)
		}
	}
	if env.Engine != nil {
		if rep := env.Engine.Report(); rep.Degraded() || rep.Interrupted {
			rep.WriteText(os.Stderr)
			fmt.Fprintf(os.Stderr, "%s: degraded run: %d cell(s) failed, %d skipped, %d resumed\n",
				name, len(rep.Failed), len(rep.Skipped), rep.Resumed)
			rc = max(rc, 1)
		} else if rep.Resumed > 0 {
			fmt.Fprintf(os.Stderr, "%s: resumed %d journalled cell(s)\n", name, rep.Resumed)
		}
	}
	if resil.Cell != "" && !ended {
		fmt.Fprintf(os.Stderr, "%s: -cell %s matched no sweep; pair it with the flags it came from\n", name, resil.Cell)
		return 2
	}
	return rc
}

// statusConfig is the run description /statusz shows: the fields every
// spec of the run shares.
func statusConfig(specs []Spec) map[string]string {
	cfg := make(map[string]string)
	for i, sp := range specs {
		var fields map[string]json.RawMessage
		json.Unmarshal([]byte(sp.Fingerprint()), &fields) //nolint:errcheck // a spec's own JSON
		if i == 0 {
			for k, v := range fields {
				cfg[k] = strings.Trim(string(v), `"`)
			}
		}
		for k, v := range cfg {
			if strings.Trim(string(fields[k]), `"`) != v {
				delete(cfg, k)
			}
		}
	}
	return cfg
}
