// Package serve is the one description of an experiment and the one path
// that runs it. A Spec names a point of the paper's evaluation grid; its
// registered Runner (Registry) normalizes it, runs it and renders the result
// bytes. cmd/figures and cmd/jumanji-sim are flag-to-Spec builders over the
// local-run skeleton (Main), and cmd/jumanji-serve is the crash-tolerant
// experiment service over the same runners: an HTTP/JSON daemon that accepts
// specs and schedules them onto the sweep engine with admission control,
// fair-share queueing, retry/backoff, journal-backed crash recovery, and
// per-experiment SSE progress streams.
//
// The service's durability contract is the journal's (internal/journal):
// every admitted spec is fsync'd before the 202 goes out, every completed
// cell is fsync'd as it finishes, and results are written atomically. A
// SIGKILL therefore loses at most the cells in flight; a restart with
// -resume re-enqueues every admitted-but-unfinished experiment and resumes
// each from its own journal, producing results byte-identical to an
// uninterrupted run. Experiments run their cells serially (one worker per
// experiment) so journal record order — and thus the recovered journal's
// bytes — is deterministic; the daemon's parallelism is across experiments
// (Config.MaxInFlight), not within them.
package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"jumanji/internal/obs"
)

// Spec is one experiment: a submission to the daemon or one selection of a
// command line. Every field but Client changes the result bytes; Client is
// an accounting identity for fair-share queueing and deliberately not part
// of the fingerprint: two clients submitting the same experiment share one
// run. Zero values take the type's defaults (Runner.Validate normalizes
// them in place).
type Spec struct {
	// Type selects the registered experiment type ("compare", "figure",
	// "table"; see Registry).
	Type string `json:"type"`
	// Client attributes the submission for fair-share queueing and
	// per-client admission caps. Empty submissions share the "anon" bucket.
	Client string `json:"client,omitempty"`

	// Compare experiments: which design(s) over which workload.
	Design string `json:"design,omitempty"` // design name or "all"
	LC     string `json:"lc,omitempty"`     // LC app, "mixed", or "datacenter"
	Load   string `json:"load,omitempty"`   // "high" (default) or "low"
	VMs    int    `json:"vms,omitempty"`    // 4 = standard case study
	Router int    `json:"router,omitempty"` // NoC router delay in cycles
	Shard  string `json:"shard,omitempty"`  // placement region WxH; empty = flat
	Apps   bool   `json:"apps,omitempty"`   // add per-application metrics

	// Figure/table experiments: which figure or table, at what mix count.
	Fig   int `json:"fig,omitempty"`
	Table int `json:"table,omitempty"`
	Mixes int `json:"mixes,omitempty"`

	// Shared: the machine, the output format ("json" for compare, "csv"
	// for a figure; empty is the text table), and the protocol scale.
	// Warmup takes its default only with Epochs: a spec that sets its run
	// length sets its warmup, and 0 is none.
	Mesh   string `json:"mesh,omitempty"`
	Format string `json:"format,omitempty"`
	Epochs int    `json:"epochs,omitempty"`
	Warmup int    `json:"warmup,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// ClientKey is the fair-share accounting bucket for this spec.
func (sp *Spec) ClientKey() string {
	if sp.Client == "" {
		return "anon"
	}
	return sp.Client
}

// Fingerprint canonically encodes everything that determines the
// experiment's result bytes — and nothing that doesn't. It is the daemon's
// dedupe key (equal fingerprints share one run and one result) and its
// journal header, so a resumed journal from a different spec is refused
// rather than merged. Call only on a normalized spec (after
// Runner.Validate).
func (sp *Spec) Fingerprint() string { return fingerprint(obs.Sinks{}, *sp) }

// fingerprint is the one canonical encoding of a run: each normalized
// spec's JSON with Client cleared, followed by the deterministic sinks that
// are on, whose state the journal records with every cell. It keys the
// daemon's dedupe cache and heads every journal, the daemon's and the
// command lines' alike.
func fingerprint(sinks obs.Sinks, specs ...Spec) string {
	parts := make([]string, 0, len(specs)+1)
	for _, sp := range specs {
		sp.Client = ""
		b, err := json.Marshal(sp)
		if err != nil {
			panic(err) // unreachable: a Spec is strings, integers, and a bool
		}
		parts = append(parts, string(b))
	}
	var on []string
	for _, s := range []struct {
		name string
		on   bool
	}{
		{"metrics", sinks.Metrics != nil}, {"events", sinks.Events != nil},
		{"trace", sinks.Trace != nil}, {"tsdb", sinks.TS != nil}, {"prov", sinks.Prov != nil},
	} {
		if s.on {
			on = append(on, s.name)
		}
	}
	if len(on) > 0 {
		parts = append(parts, "sinks="+strings.Join(on, ","))
	}
	return strings.Join(parts, " ")
}

// FPHash is the fingerprint folded to a filesystem-safe name: journal and
// result files are keyed by it, so identical resubmissions land on the
// same files across daemon restarts.
func FPHash(fingerprint string) string {
	h := fnv.New64a()
	h.Write([]byte(fingerprint))
	return fmt.Sprintf("%016x", h.Sum64())
}

// maxMeshSide bounds each side of a mesh or placement region, at twice the
// 16×16 of Fig. 19. A run's memory grows with the square of the tile count
// (a 64×64 run takes hundreds of MB), and running out of memory kills the
// whole process — the daemon with every experiment in it — past any
// recover.
const maxMeshSide = 32

// parseDims parses a "WxH" mesh or region; "" is 0x0.
func parseDims(s string) (w, h int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	ws, hs, ok := strings.Cut(s, "x")
	w, werr := strconv.Atoi(ws)
	h, herr := strconv.Atoi(hs)
	if !ok || werr != nil || herr != nil || w <= 0 || h <= 0 || w > maxMeshSide || h > maxMeshSide {
		return 0, 0, fmt.Errorf("invalid dimensions %q (want WxH with sides 1 to %d, e.g. 16x16)", s, maxMeshSide)
	}
	return w, h, nil
}

// normDims rewrites a "WxH" field in canonical form ("" stays "").
func normDims(s *string) error {
	w, h, err := parseDims(*s)
	if err == nil && *s != "" {
		*s = fmt.Sprintf("%dx%d", w, h)
	}
	return err
}
