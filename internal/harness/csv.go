package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV emits a header row plus numeric rows — the format the
// plot-worthy figures use so results can be graphed directly.
func WriteCSV(w io.Writer, header []string, rows [][]float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = strconv.FormatFloat(v, 'g', 6, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSV renders the figure's primary series as CSV. Supported figures are the
// curve/series plots (4, 8, 12, 17, 18, 19); the box-plot and breakdown
// figures are text-table only. Errors follow Render's contract: a sweep
// error is returned as is, and nothing is written.
func CSV(w io.Writer, fig int, o Options) error {
	switch fig {
	case 4:
		r, err := Fig4(o)
		if err != nil {
			return err
		}
		header := []string{"epoch"}
		for _, d := range r.Designs {
			header = append(header, d+"_latnorm", d+"_allocMB", d+"_vuln")
		}
		var rows [][]float64
		for e := range r.LatNorm[0] {
			row := []float64{float64(e)}
			for d := range r.Designs {
				row = append(row, r.LatNorm[d][e], r.AllocMB[d][e], r.Vuln[d][e])
			}
			rows = append(rows, row)
		}
		return WriteCSV(w, header, rows)
	case 8:
		pts, err := Fig8(o)
		if err != nil {
			return err
		}
		rows := make([][]float64, len(pts))
		for i, p := range pts {
			rows[i] = []float64{p.AllocMB, p.NormTailSNUCA, p.NormTailDNUCA}
		}
		return WriteCSV(w, []string{"alloc_mb", "snuca_tail", "dnuca_tail"}, rows)
	case 12:
		r, err := Fig12(o)
		if err != nil {
			return err
		}
		rows := make([][]float64, len(r.SNUCA))
		for i := range r.SNUCA {
			rows[i] = []float64{float64(i), r.SNUCA[i], r.DNUCA[i]}
		}
		return WriteCSV(w, []string{"mix", "snuca_tail", "dnuca_tail"}, rows)
	case 17:
		res, err := Fig17(o)
		if err != nil {
			return err
		}
		rows := make([][]float64, len(res))
		for i, r := range res {
			rows[i] = []float64{float64(r.VMs), r.Speedup}
		}
		return WriteCSV(w, []string{"vms", "speedup"}, rows)
	case 18:
		res, err := Fig18(o)
		if err != nil {
			return err
		}
		rows := make([][]float64, len(res))
		for i, r := range res {
			rows[i] = []float64{float64(r.RouterDelay), r.Speedup}
		}
		return WriteCSV(w, []string{"router_cycles", "speedup"}, rows)
	case 19:
		res, err := Fig19(o)
		if err != nil {
			return err
		}
		header := []string{"tiles"}
		var rows [][]float64
		for _, r := range res {
			if len(rows) == 0 || rows[len(rows)-1][0] != float64(r.MeshW*r.MeshH) {
				rows = append(rows, []float64{float64(r.MeshW * r.MeshH)})
			}
			last := len(rows) - 1
			if last == 0 {
				header = append(header, r.Design+"_speedup", r.Design+"_sloviol", r.Design+"_moved")
			}
			rows[last] = append(rows[last], r.Speedup, r.SLOViolFrac, r.ReconfigMoved)
		}
		return WriteCSV(w, header, rows)
	}
	return fmt.Errorf("harness: figure %d has no CSV form (series figures: 4, 8, 12, 17, 18, 19)", fig)
}
