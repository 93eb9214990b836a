package sweep

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"jumanji/internal/chaos"
	"jumanji/internal/journal"
	"jumanji/internal/parallel"
)

// CLI is the shared command-line surface for the crash-safety layer:
// cmd/figures and cmd/jumanji-sim both register these flags and build one
// Engine from them. The zero value with no flags set builds a nil Engine —
// the historical zero-overhead path.
type CLI struct {
	Journal   string
	Resume    string
	KeepGoing bool
	Cell      string
	Soft      time.Duration
	Hard      time.Duration
	ChaosSpec string
	Check     bool

	writer *journal.Writer
}

// RegisterFlags registers the resilience flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Journal, "journal", "", "append every completed cell to this crash-safe journal `file` (fsync'd; survives kill -9)")
	fs.StringVar(&c.Resume, "resume", "", "journal `file` from a prior run: completed cells replay byte-identically, only the remainder runs (also appends new cells to it)")
	fs.BoolVar(&c.KeepGoing, "keep-going", false, "isolate cell panics: finish every other cell, then report all failures and exit 1")
	fs.StringVar(&c.Cell, "cell", "", "run exactly one cell, as `label:index` from a failure report's repro line (combine with the original -fig/-table/-design flags)")
	fs.DurationVar(&c.Soft, "cell-soft-timeout", 0, "log cells still running after this `duration`, with their active phase (0 = off)")
	fs.DurationVar(&c.Hard, "cell-timeout", 0, "cancel cells still running after this `duration` via their context (0 = off)")
	fs.StringVar(&c.ChaosSpec, "chaos", "", "deterministic fault-injection `spec`, e.g. 'curve-nan@0.25,panic-cell=3' (rates in [0,1] with @, pinned keys with =)")
	fs.BoolVar(&c.Check, "check", false, "verify per-epoch invariants inside every run (MRC validity, placement capacity, finite CPI, controller bounds, reconfig liveness)")
}

// Enabled reports whether any resilience feature was requested; when false,
// Build returns a nil Engine and the sweeps take the zero-overhead path.
func (c *CLI) Enabled() bool {
	return c.Journal != "" || c.Resume != "" || c.KeepGoing || c.Cell != "" ||
		c.Soft > 0 || c.Hard > 0 || c.ChaosSpec != ""
}

// Build validates the flags and constructs the Engine plus the fault
// injector for Env.Chaos (nil when -chaos is unset). fingerprint must
// encode every option that affects cell identity — protocol scale, seed,
// and which sinks are enabled — so a resume against a journal from a
// different configuration is refused instead of silently merging foreign
// results.
// repro renders the command line that re-runs one cell (used in failure
// reports); seed seeds the chaos injector.
func (c *CLI) Build(seed int64, fingerprint string, repro func(label string, cell int) string) (*Engine, *chaos.Injector, error) {
	var inj *chaos.Injector
	if c.ChaosSpec != "" {
		var err error
		if inj, err = chaos.Parse(c.ChaosSpec, seed); err != nil {
			return nil, nil, err
		}
	}
	if !c.Enabled() {
		return nil, nil, nil
	}
	e := &Engine{
		KeepGoing: c.KeepGoing,
		Stop:      &parallel.Stopper{},
		Soft:      c.Soft,
		Hard:      c.Hard,
		Log:       os.Stderr,
		Repro:     repro,
	}
	if c.Cell != "" {
		ref, err := ParseCellRef(c.Cell)
		if err != nil {
			return nil, nil, err
		}
		e.Only = &ref
	}

	path := c.Journal
	if c.Resume != "" {
		if path != "" && path != c.Resume {
			return nil, nil, fmt.Errorf("sweep: -journal %q conflicts with -resume %q: a resume appends to the journal it replays", path, c.Resume)
		}
		log, err := journal.Load(c.Resume)
		if err != nil {
			return nil, nil, err
		}
		if err := log.Check(fingerprint); err != nil {
			return nil, nil, err
		}
		e.Resume = log
		w, err := journal.OpenAppend(c.Resume, log)
		if err != nil {
			return nil, nil, err
		}
		e.Journal, c.writer = w, w
	} else if path != "" {
		w, err := journal.Create(path, fingerprint)
		if err != nil {
			return nil, nil, err
		}
		e.Journal, c.writer = w, w
	}
	return e, inj, nil
}

// Close flushes and closes the journal writer, if one was opened.
func (c *CLI) Close() error {
	if c.writer == nil {
		return nil
	}
	w := c.writer
	c.writer = nil
	return w.Close()
}

// HandleInterrupt installs graceful SIGINT handling for a run: the first
// interrupt trips stop, so in-flight cells drain (keeping their results and
// journal records) and unstarted ones are reported as skipped; a second
// interrupt exits immediately with status 130. The returned func uninstalls
// the handler.
func HandleInterrupt(stop *parallel.Stopper, log io.Writer) func() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt)
	go func() {
		for range ch {
			if stop.Stopped() {
				fmt.Fprintln(log, "second interrupt: aborting now")
				os.Exit(130)
			}
			stop.Stop()
			fmt.Fprintln(log, "interrupt: draining in-flight cells (journalled results are kept); interrupt again to abort")
		}
	}()
	return func() { signal.Stop(ch) }
}
