package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"jumanji/internal/security"
	"jumanji/internal/system"
)

// Fig11Result is the port-attack demonstration trace and signal summary.
type Fig11Result struct {
	Samples []security.PortAttackSample
	Signal  security.PortAttackSignal
	// Banks is the number of LLC banks swept by the victim (12 on the
	// paper's Xeon E5-2650 v4; 20 on the Table II machine).
	Banks int
}

// Fig11 runs the LLC port attack on the event-driven simulator: the
// attacker floods one bank while the victim sweeps all banks, producing
// one latency peak per bank and the strongest peak at the shared bank.
func Fig11(o Options) Fig11Result {
	cfg := security.DefaultPortAttackConfig()
	cfg.Spans = o.Spans
	samples := security.RunPortAttack(cfg)
	return Fig11Result{
		Samples: samples,
		Signal:  security.Summarize(samples, cfg.TargetBank),
		Banks:   cfg.Mesh.Tiles(),
	}
}

// Render prints the signal summary and an ASCII latency timeline.
func (r Fig11Result) Render(w io.Writer) {
	header(w, "Fig. 11", "LLC port attack: attacker access latency vs. time while a victim sweeps banks. Elevated latency reveals victim activity; the highest peaks are same-bank port contention.")
	fmt.Fprintf(w, "mean attacker latency (cycles): idle %.1f | victim on other bank %.1f | victim on attacker's bank %.1f\n\n",
		r.Signal.Idle, r.Signal.OtherBank, r.Signal.SameBank)
	if len(r.Samples) == 0 {
		return
	}
	lo, hi := r.Samples[0].MeanLatency, r.Samples[0].MeanLatency
	for _, s := range r.Samples {
		if s.MeanLatency < lo {
			lo = s.MeanLatency
		}
		if s.MeanLatency > hi {
			hi = s.MeanLatency
		}
	}
	step := len(r.Samples) / 60
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Samples); i += step {
		s := r.Samples[i]
		width := 0
		if hi > lo {
			width = int((s.MeanLatency - lo) / (hi - lo) * 50)
		}
		marker := " "
		if s.VictimBank >= 0 {
			marker = fmt.Sprintf("%d", s.VictimBank%10)
		}
		fmt.Fprintf(w, "t=%-12d %6.1f %s|%s\n", s.Time, s.MeanLatency, marker, bar(width))
	}
}

func bar(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// Fig12Result holds the performance-leakage experiment: per mix, the worst
// img-dnn normalized tail under a fixed S-NUCA partition vs. two nearest
// D-NUCA banks, each sorted ascending (the paper plots sorted curves).
type Fig12Result struct {
	SNUCA, DNUCA []float64
}

// Fig12 reproduces the performance-leakage demonstration: four img-dnn
// instances with fixed allocations run against many random batch mixes.
// The S-NUCA partition's tail varies with the co-runners (DRRIP set-dueling
// leakage) and violates the deadline for some mixes; the two-nearest-banks
// placement is stable and lower.
func Fig12(o Options) (Fig12Result, error) {
	b := caseStudyBuilder("img-dnn", true)
	// Exported fields: cell results are gob-encoded into the crash journal.
	type pair struct{ SNUCA, DNUCA float64 }
	cells, err := runCells(o, "fig12", o.Mixes, func(mix int, co Options) pair {
		cfg := co.systemConfig()
		// Keep the request-arrival seed fixed across mixes: the paper's
		// Fig. 12 varies only the co-running batch applications, so any
		// tail variation is caused by the co-runners (set-dueling leakage),
		// not by different request sequences.
		cfgMix := cfg
		cfgMix.Seed = o.Seed
		rng := rand.New(rand.NewSource(cellSeed(o.Seed, b.label+"/mix", mix)))
		wl, err := b.build(cfg.Machine, rng)
		if err != nil {
			panic(err)
		}
		s := system.RunFixedLat(cfgMix, wl, 2.5*(1<<20), false, o.Epochs, o.Warmup)
		d := system.RunFixedLat(cfgMix, wl, 2.0*(1<<20), true, o.Epochs, o.Warmup)
		return pair{SNUCA: s.WorstNormTail, DNUCA: d.WorstNormTail}
	})
	if err != nil {
		return Fig12Result{}, err
	}
	var res Fig12Result
	for _, c := range cells {
		res.SNUCA = append(res.SNUCA, c.SNUCA)
		res.DNUCA = append(res.DNUCA, c.DNUCA)
	}
	sort.Float64s(res.SNUCA)
	sort.Float64s(res.DNUCA)
	return res, nil
}

// Render prints the sorted tail curves.
func (r Fig12Result) Render(w io.Writer) {
	header(w, "Fig. 12", "img-dnn p95 / deadline across random batch mixes, sorted. Fixed 2.5 MB S-NUCA partition varies with co-runners (set-dueling leakage); 2 nearest banks are stable and lower.")
	fmt.Fprintf(w, "%-8s %18s %18s\n", "mix", "S-NUCA 2.5MB", "D-NUCA 2 banks")
	for i := range r.SNUCA {
		fmt.Fprintf(w, "%-8d %18.3f %18.3f\n", i, r.SNUCA[i], r.DNUCA[i])
	}
}
