// Package prom renders obs metric snapshots in the Prometheus text
// exposition format (version 0.0.4), the format scraped from /metrics
// endpoints. It depends only on the snapshot types, so anything that can
// produce []obs.MetricSnapshot — a Registry, a Spans, the statusz server's
// published copies — renders through the same writer.
//
// The simulator's dotted metric names ("system.epochs",
// "span.core.place.seconds") are sanitized into the Prometheus alphabet by
// mapping every invalid character to '_' ("system_epochs"). Counters
// additionally get the conventional "_total" suffix.
//
// Histograms render as the standard cumulative _bucket/_sum/_count series.
// The obs Histogram clamps out-of-range observations into its edge bins, so
// the le bound of the last finite bucket is nominal: samples beyond hi are
// counted there rather than only in the +Inf bucket. _sum and _count are
// always exact.
package prom

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"jumanji/internal/obs"
)

// ContentType is the HTTP Content-Type for this exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Write renders the snapshots to w, in the given order (obs snapshots come
// pre-sorted by name). Callers interleaving several snapshot sources must
// ensure names do not collide after sanitization.
func Write(w io.Writer, snaps []obs.MetricSnapshot) error {
	bw := bufio.NewWriter(w)
	for _, s := range snaps {
		name := Name(s.Name)
		switch s.Kind {
		case obs.KindCounter:
			if !strings.HasSuffix(name, "_total") {
				name += "_total"
			}
			fmt.Fprintf(bw, "# TYPE %s counter\n", name)
			fmt.Fprintf(bw, "%s %s\n", name, num(s.Value))
		case obs.KindGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
			fmt.Fprintf(bw, "%s %s\n", name, num(s.Value))
		case obs.KindHistogram:
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
			width := (s.Hi - s.Lo) / float64(len(s.Bins))
			var cum uint64
			for i, b := range s.Bins {
				cum += b
				le := s.Lo + width*float64(i+1)
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, num(le), cum)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
			fmt.Fprintf(bw, "%s_sum %s\n", name, num(s.Sum))
			fmt.Fprintf(bw, "%s_count %d\n", name, s.Count)
		default:
			return fmt.Errorf("prom: metric %q has unknown kind %v", s.Name, s.Kind)
		}
	}
	return bw.Flush()
}

// Name maps a simulator metric name into the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing every other character with '_' and
// prefixing '_' when the name would start with a digit.
func Name(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// num formats a sample value the way Prometheus clients do: shortest
// round-trip representation, no exponent for typical magnitudes.
func num(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
