package statusz

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"jumanji/internal/obs"
)

// explainStore holds the provenance records published so far, indexed for
// the /explain endpoint. Like the other statusz state it only ever sees
// immutable snapshots published at cell-merge points — the server never
// reads a live sink.
type explainStore struct {
	mu        sync.Mutex
	decisions map[explainKey][]obs.PlacementDecision
	valves    map[explainKey][]obs.PlacementValve
	order     []explainKey // key insertion order, for bounded eviction
	latest    map[int]int  // vm -> newest epoch with a decision
}

type explainKey struct {
	VM    int
	Epoch int
}

// maxExplainKeys bounds the (vm, epoch) pairs the server retains; a sweep
// publishing more evicts the oldest pairs. 4096 pairs comfortably covers a
// live fig-13 run while keeping a day-long sweep's memory bounded.
const maxExplainKeys = 4096

func (e *explainStore) keyLocked(k explainKey) {
	if _, ok := e.decisions[k]; ok {
		return
	}
	if _, ok := e.valves[k]; ok {
		return
	}
	e.order = append(e.order, k)
	for len(e.order) > maxExplainKeys {
		old := e.order[0]
		e.order = e.order[1:]
		delete(e.decisions, old)
		delete(e.valves, old)
	}
}

// PublishProvenance ingests one cell's decoded provenance events for
// /explain to serve. The harness calls it at cell-merge points in cell
// order (see obs.Sinks.Merge). Safe on a nil Server.
func (s *Server) PublishProvenance(evs []obs.Event) {
	if s == nil {
		return
	}
	e := &s.explain
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.decisions == nil {
		e.decisions = make(map[explainKey][]obs.PlacementDecision)
		e.valves = make(map[explainKey][]obs.PlacementValve)
		e.latest = make(map[int]int)
	}
	for _, ev := range evs {
		switch ev.Type {
		case obs.TypePlacementDecision:
			var d obs.PlacementDecision
			if json.Unmarshal(ev.Data, &d) != nil {
				continue
			}
			k := explainKey{VM: d.VM, Epoch: d.Epoch}
			e.keyLocked(k)
			e.decisions[k] = append(e.decisions[k], d)
			if cur, ok := e.latest[d.VM]; !ok || d.Epoch > cur {
				e.latest[d.VM] = d.Epoch
			}
		case obs.TypePlacementValve:
			var v obs.PlacementValve
			if json.Unmarshal(ev.Data, &v) != nil {
				continue
			}
			k := explainKey{VM: v.VM, Epoch: v.Epoch} // VM may be -1 (run-wide)
			e.keyLocked(k)
			e.valves[k] = append(e.valves[k], v)
		}
	}
}

// explainBody is the /explain JSON document: every placement decision
// recorded for the VM at the epoch, plus the valves that fired for it (and
// the run-wide valves, VM -1, at the same epoch).
type explainBody struct {
	VM        int                     `json:"vm"`
	Epoch     int                     `json:"epoch"`
	Decisions []obs.PlacementDecision `json:"decisions"`
	Valves    []obs.PlacementValve    `json:"valves,omitempty"`
}

// handleExplain answers /explain?vm=N[&epoch=K]: why VM N landed where it
// did at reconfiguration K (newest recorded epoch when K is omitted). It
// serves only what PublishProvenance has ingested, so it requires the run
// to have both -provenance and -status set.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	vm := -1
	if v := q.Get("vm"); v == "" {
		http.Error(w, "explain: want ?vm=N (and optionally &epoch=K)", http.StatusBadRequest)
		return
	} else if _, err := fmt.Sscanf(v, "%d", &vm); err != nil || vm < 0 {
		http.Error(w, "explain: vm: want a non-negative integer", http.StatusBadRequest)
		return
	}

	e := &s.explain
	e.mu.Lock()
	defer e.mu.Unlock()

	epoch, haveEpoch := 0, false
	if v := q.Get("epoch"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &epoch); err != nil || epoch < 0 {
			http.Error(w, "explain: epoch: want a non-negative integer", http.StatusBadRequest)
			return
		}
		haveEpoch = true
	} else if latest, ok := e.latest[vm]; ok {
		epoch, haveEpoch = latest, true
	}
	if !haveEpoch {
		http.Error(w, fmt.Sprintf("explain: no provenance recorded for vm %d yet (is the run using -provenance, and has a cell merged?)", vm),
			http.StatusNotFound)
		return
	}

	k := explainKey{VM: vm, Epoch: epoch}
	body := explainBody{VM: vm, Epoch: epoch, Decisions: []obs.PlacementDecision{}}
	body.Decisions = append(body.Decisions, e.decisions[k]...)
	body.Valves = append(body.Valves, e.valves[k]...)
	// Run-wide valves (VM -1) apply to every VM placed that epoch.
	body.Valves = append(body.Valves, e.valves[explainKey{VM: -1, Epoch: epoch}]...)
	if len(body.Decisions) == 0 && len(body.Valves) == 0 {
		http.Error(w, fmt.Sprintf("explain: no provenance recorded for vm %d at epoch %d (try omitting epoch for the newest)", vm, epoch),
			http.StatusNotFound)
		return
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // best-effort response write
}
