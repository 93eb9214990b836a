package harness

import (
	"fmt"
	"io"
)

// Figures lists every figure number Render accepts, ascending.
func Figures() []int { return []int{4, 5, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19} }

// Tables lists every table number RenderTableN accepts, ascending.
func Tables() []int { return []int{1, 2, 3} }

// Render regenerates one figure and writes its text rendering to w. It is
// the one figure dispatch, shared by cmd/figures and the jumanji-serve
// daemon, so a submitted figure experiment produces bytes identical to the
// command line's. A sweep error (a *sweep.RunError for a degraded run, a
// *sweep.OnlyDone after single-cell repro) is returned as is, and nothing is
// written.
func Render(w io.Writer, fig int, o Options) error {
	switch fig {
	case 4:
		return show(w, func(w io.Writer, r Fig4Result) { r.Render(w) })(Fig4(o))
	case 5:
		return show(w, RenderFig5)(Fig5(o))
	case 8:
		return show(w, RenderFig8)(Fig8(o))
	case 9:
		return show(w, RenderFig9)(Fig9(o))
	case 11:
		Fig11(o).Render(w)
	case 12:
		return show(w, func(w io.Writer, r Fig12Result) { r.Render(w) })(Fig12(o))
	case 13:
		return show(w, func(w io.Writer, r Fig13Result) { r.Render(w) })(Fig13(o))
	case 14:
		return show(w, RenderFig14)(Fig14(o))
	case 15:
		return show(w, RenderFig15)(Fig15(o))
	case 16:
		return show(w, RenderFig16)(Fig16(o))
	case 17:
		return show(w, RenderFig17)(Fig17(o))
	case 18:
		return show(w, RenderFig18)(Fig18(o))
	case 19:
		return show(w, RenderFig19)(Fig19(o))
	default:
		return fmt.Errorf("no figure %d (figures: %v)", fig, Figures())
	}
	return nil
}

// RenderTableN regenerates one table into w, with Render's error contract.
func RenderTableN(w io.Writer, table int, o Options) error {
	switch table {
	case 1:
		return show(w, RenderTable1)(Table1(o))
	case 2:
		RenderTable2(w)
	case 3:
		RenderTable3(w)
	default:
		return fmt.Errorf("no table %d (tables: %v)", table, Tables())
	}
	return nil
}

// show adapts a renderer to a figure's (result, error) return: it writes the
// result once every sweep completed and passes a sweep error through.
func show[T any](w io.Writer, render func(io.Writer, T)) func(T, error) error {
	return func(res T, err error) error {
		if err == nil {
			render(w, res)
		}
		return err
	}
}
