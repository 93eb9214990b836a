package harness

import (
	"bytes"
	"errors"
	"testing"

	"jumanji/internal/chaos"
	"jumanji/internal/obs"
	"jumanji/internal/sweep"
)

// A degraded sweep comes back from Render as a *sweep.RunError naming the
// failed cell, and the figure writes nothing.
func TestRenderDegradedSweepReturnsRunError(t *testing.T) {
	o := tinyOptions()
	o.Mixes = 3
	o.Engine = &sweep.Engine{KeepGoing: true}
	o.Chaos = chaos.New(1).Pin(chaos.CellPanic, 2)
	var buf bytes.Buffer
	err := Render(&buf, 12, o)
	var rerr *sweep.RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("Render = %v, want a *sweep.RunError", err)
	}
	if f := rerr.Report.Failed; len(f) != 1 || f[0].Label != "fig12" || f[0].Cell != 2 {
		t.Fatalf("failed cells = %+v, want exactly fig12:2", f)
	}
	if buf.Len() != 0 {
		t.Fatalf("degraded figure wrote %d bytes:\n%s", buf.Len(), buf.String())
	}
}

// Single-cell repro of a later sweep: Fig. 13's first sweep runs in full,
// the target label runs its one cell, and Render returns *sweep.OnlyDone
// without writing the figure.
func TestRenderOnlyReachesSecondSweep(t *testing.T) {
	o := tinyOptions()
	o.Metrics = obs.NewRegistry()
	second := sweepLabel(workloadBuilder(LCNames()[1], true), mainDesigns())
	o.Engine = &sweep.Engine{Only: &sweep.CellRef{Label: second, Cell: 1}}
	var buf bytes.Buffer
	err := Render(&buf, 13, o)
	var done *sweep.OnlyDone
	if !errors.As(err, &done) || done.Ref != *o.Engine.Only {
		t.Fatalf("Render = %v, want *sweep.OnlyDone for %s:1", err, second)
	}
	if buf.Len() != 0 {
		t.Fatalf("single-cell repro wrote %d bytes", buf.Len())
	}
	// Each mix cell runs every main design for o.Epochs epochs: the first
	// sweep's o.Mixes cells plus the target's one.
	want := uint64((o.Mixes + 1) * len(mainDesigns()) * o.Epochs)
	if got := o.Metrics.Counter("system.epochs").Value(); got != want {
		t.Fatalf("system.epochs = %d, want %d (first sweep in full, then one cell)", got, want)
	}
}
