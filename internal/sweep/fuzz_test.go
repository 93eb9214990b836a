package sweep

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
)

// deterministicSinks returns fresh sinks with all five deterministic sinks
// on, writing into bufs.
func deterministicSinks(bufs *[3]bytes.Buffer) obs.Sinks {
	return obs.Sinks{
		Metrics: obs.NewRegistry(),
		Events:  obs.NewEventLog(&bufs[0]),
		Trace:   obs.NewTrace(&bufs[1]),
		TS:      tsdb.New(8),
		Prov:    obs.NewEventLog(&bufs[2]),
	}
}

// FuzzDecodeCell feeds arbitrary journal payloads to decodeCell, the resume
// path's reader of outside input. It must never panic, and a cell it
// accepts must merge twice into one set of fresh sinks without panicking
// (a merge may still return an error, as a corrupt event log does).
func FuzzDecodeCell(f *testing.F) {
	var bufs [3]bytes.Buffer
	c := deterministicSinks(&bufs).Cell()
	runCell(3, Env{Sinks: c.Sinks})
	c.Metrics.Gauge("cells.last").Set(3)
	c.TS.Append("cells.val", 0, 3)
	c.Prov.EmitPlacementValve(&obs.PlacementValve{Epoch: 1, Design: "cell-3", Valve: "region-fallback", VM: -1})
	payload, err := encodeCell(cellRes{ID: 3, Tail: []float64{1, 2}}, c)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})
	// States only a corrupt journal holds: an unnamed metric, a name used
	// twice, and NaN histogram bounds, which fail the second merge.
	for _, ms := range [][]obs.MetricState{
		{{Kind: obs.KindCounter}},
		{{Name: "x", Kind: obs.KindCounter}, {Name: "x", Kind: obs.KindGauge}},
		{{Name: "h", Kind: obs.KindHistogram, Lo: math.NaN(), Hi: math.NaN(), Bins: []uint64{1}}},
	} {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(&cellRes{}); err != nil {
			f.Fatal(err)
		}
		if err := enc.Encode(&obs.CellState{Metrics: ms}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, c, err := decodeCell[cellRes](payload)
		if err != nil {
			return
		}
		var bufs [3]bytes.Buffer
		s := deterministicSinks(&bufs)
		s.Merge([]*obs.Cell{c}) //nolint:errcheck // only a panic fails
		s.Merge([]*obs.Cell{c}) //nolint:errcheck
	})
}
