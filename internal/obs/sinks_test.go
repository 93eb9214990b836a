package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"jumanji/internal/obs/tsdb"
)

// Merge feeds the live endpoints: PublishMetrics and PublishTimeseries fire
// once per merge with the merged state, and PublishProvenance once per cell
// that recorded provenance, in cell order.
func TestSinksMergePublishes(t *testing.T) {
	var provBuf bytes.Buffer
	s := Sinks{Metrics: NewRegistry(), TS: tsdb.New(64), Prov: NewEventLog(&provBuf)}
	// A nil cell (a failed one) and a cell without provenance publish
	// nothing of their own.
	cells := []*Cell{s.Cell(), nil, s.Cell(), s.Cell()}
	for i, c := range cells {
		if c == nil {
			continue
		}
		c.Metrics.Counter("cells").Add(uint64(i + 1))
		c.TS.Append("cells", i, float64(i))
		if i != 2 {
			c.Prov.EmitPlacementDecision(&PlacementDecision{Design: "jumanji", Stage: StageLatCrit, VM: i, Region: -1})
			c.Prov.EmitPlacementDecision(&PlacementDecision{Design: "jumanji", Stage: StageBatch, VM: i, Region: -1})
		}
	}

	var metrics [][]MetricSnapshot
	var series [][]tsdb.SeriesData
	var provVMs [][]int
	s.PublishMetrics = func(m []MetricSnapshot) { metrics = append(metrics, m) }
	s.PublishTimeseries = func(d []tsdb.SeriesData) { series = append(series, d) }
	s.PublishProvenance = func(evs []Event) {
		var vms []int
		for _, ev := range evs {
			var d PlacementDecision
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				t.Fatal(err)
			}
			vms = append(vms, d.VM)
		}
		provVMs = append(provVMs, vms)
	}
	if err := s.Merge(cells); err != nil {
		t.Fatal(err)
	}

	if len(metrics) != 1 {
		t.Fatalf("PublishMetrics called %d times, want 1", len(metrics))
	}
	if got := metrics[0]; len(got) != 1 || got[0].Name != "cells" || got[0].Value != 1+3+4 {
		t.Errorf("PublishMetrics got %+v, want the merged cells counter = 8", got)
	}
	if len(series) != 1 {
		t.Fatalf("PublishTimeseries called %d times, want 1", len(series))
	}
	if got := series[0]; len(got) != 1 || len(got[0].Samples) != 3 {
		t.Errorf("PublishTimeseries got %+v, want one series with the 3 merged samples", got)
	}
	if want := [][]int{{0, 0}, {3, 3}}; !reflect.DeepEqual(provVMs, want) {
		t.Errorf("PublishProvenance calls = %v, want %v (one per cell with provenance, in cell order)", provVMs, want)
	}
	if n := bytes.Count(provBuf.Bytes(), []byte("\n")); n != 4 {
		t.Errorf("merged provenance log has %d records, want 4", n)
	}

	// Nil hooks are skipped (calling one would panic); the merge still
	// happens.
	var provBuf2 bytes.Buffer
	quiet := Sinks{Metrics: NewRegistry(), TS: tsdb.New(64), Prov: NewEventLog(&provBuf2)}
	c := quiet.Cell()
	c.Metrics.Counter("cells").Add(1)
	c.Prov.EmitPlacementDecision(&PlacementDecision{Design: "jumanji", Stage: StageBatch, Region: -1})
	if err := quiet.Merge([]*Cell{c}); err != nil {
		t.Fatal(err)
	}
	if quiet.Metrics.Counter("cells").Value() != 1 || provBuf2.Len() == 0 {
		t.Error("Merge without hooks did not merge")
	}
}

// A cell mirrors only the deterministic sinks; it shares Spans and leaves
// Progress and the publish hooks with the fan-out.
func TestSinksCellMirrors(t *testing.T) {
	s := Sinks{
		Metrics: NewRegistry(), Spans: NewSpans(),
		PublishMetrics: func([]MetricSnapshot) { t.Error("cell published") },
	}
	c := s.Cell()
	if c.Metrics == nil || c.Metrics == s.Metrics {
		t.Error("cell Metrics is not a private registry")
	}
	if c.Events != nil || c.Trace != nil || c.TS != nil || c.Prov != nil {
		t.Error("cell enabled a sink the user left nil")
	}
	if c.Spans != s.Spans {
		t.Error("cell does not share Spans")
	}
	if c.PublishMetrics != nil || c.Progress != nil {
		t.Error("cell carries the fan-out's Progress or publish hooks")
	}
}
