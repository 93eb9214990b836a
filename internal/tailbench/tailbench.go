// Package tailbench models the latency-critical applications of the
// evaluation (masstree, xapian, img-dnn, silo, moses from TailBench [36]).
// The real TailBench servers are unavailable here; each application is a
// queueing model — Poisson request arrivals at the Table III rates, served
// FIFO by one core whose service time scales with the application's CPI
// under its current LLC allocation and placement. Tail latency in the paper
// is queueing-dominated (Fig. 8's 50× cliff appears when the arrival rate
// exceeds the service rate), and that is exactly the mechanism this model
// reproduces. See DESIGN.md §1.
package tailbench

import (
	"fmt"
	"math"
	"math/rand"

	"jumanji/internal/mrc"
)

// Profile describes one latency-critical application.
type Profile struct {
	Name string
	// LowQPS and HighQPS are the Table III request rates (queries/second),
	// corresponding to roughly 10% and 50% utilization.
	LowQPS, HighQPS float64
	// NumQueries is the per-experiment query count from Table III.
	NumQueries int
	// BaseCPI and APKI parameterize the CPI model like batch profiles.
	BaseCPI, APKI float64
	// WS and Floor shape the per-request miss-ratio curve.
	WS, Floor float64
}

// Profiles are the five TailBench applications with their Table III
// workload configuration.
var Profiles = []Profile{
	{Name: "masstree", LowQPS: 300, HighQPS: 1475, NumQueries: 3000, BaseCPI: 0.45, APKI: 26, WS: 3500 << 10, Floor: 0.25},
	{Name: "xapian", LowQPS: 130, HighQPS: 570, NumQueries: 1500, BaseCPI: 0.35, APKI: 20, WS: 1300 << 10, Floor: 0.08},
	{Name: "img-dnn", LowQPS: 28, HighQPS: 135, NumQueries: 350, BaseCPI: 0.35, APKI: 18, WS: 1600 << 10, Floor: 0.08},
	{Name: "silo", LowQPS: 375, HighQPS: 1750, NumQueries: 3500, BaseCPI: 0.4, APKI: 15, WS: 700 << 10, Floor: 0.15},
	{Name: "moses", LowQPS: 34, HighQPS: 155, NumQueries: 300, BaseCPI: 0.5, APKI: 22, WS: 2500 << 10, Floor: 0.22},
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// MissRatio samples the application's miss-ratio curve on a unit/points
// grid, like workload.Profile.MissRatio.
//
// Latency-critical server applications combine a hot index (a fairly sharp
// logistic transition once it fits — this steepness is what makes tail
// latency collapse from queueing when the allocation drops below the
// working set, Fig. 8's 50× cliff) with colder per-request data whose reuse
// keeps paying off slowly well past the hot set (which is why Fig. 8's
// S-NUCA line keeps improving out to several MB). The curve is a 75/25
// mixture of the two components above an irreducible floor.
func (p Profile) MissRatio(unit float64, points int) mrc.Curve {
	if unit <= 0 || points < 1 {
		panic(fmt.Sprintf("tailbench: bad curve grid (%g, %d)", unit, points))
	}
	const (
		cliffWeight  = 0.75
		smoothWeight = 1 - cliffWeight
		cliffSlope   = 6 // logistic steepness in units of 1/WS
		smoothScale  = 2 // smooth-component decay length in units of WS
	)
	k := cliffSlope / p.WS
	pts := make([]float64, points+1)
	for i := range pts {
		s := float64(i) * unit
		cliff := 1 - 1/(1+math.Exp(-k*(s-p.WS)))
		smooth := math.Exp(-s / (smoothScale * p.WS))
		pts[i] = p.Floor + (1-p.Floor)*(cliffWeight*cliff+smoothWeight*smooth)
	}
	return mrc.New(unit, pts)
}

// WorkKI returns the request's work in kilo-instructions, calibrated so
// that at the reference CPI the application runs at 50% utilization under
// its HighQPS rate (the paper's definition of high load). freqHz is the
// core clock (Table II: 2.66 GHz).
func (p Profile) WorkKI(refCPI, freqHz float64) float64 {
	if refCPI <= 0 || freqHz <= 0 {
		panic("tailbench: WorkKI needs positive reference CPI and frequency")
	}
	serviceSeconds := 0.5 / p.HighQPS
	serviceCycles := serviceSeconds * freqHz
	return serviceCycles / (1000 * refCPI)
}

// QueueSim simulates one latency-critical application's request queue in
// continuous time (cycles): Poisson arrivals, FIFO service by one server,
// lognormally distributed service times (an M/G/1 discipline, whose tail
// inflates sharply as utilization approaches one). State carries across
// epochs so queue buildup persists — the behaviour Fig. 4a shows for
// Jigsaw, whose tail latency grows over time.
type QueueSim struct {
	rng         *rand.Rand
	lambda      float64 // arrivals per cycle
	now         float64
	nextArrival float64
	serverFree  float64

	// queue[qhead:] holds arrival times of requests not yet started. Popping
	// advances qhead instead of reslicing away the front, so the backing
	// array is reused across epochs (it resets to empty whenever the queue
	// drains, and compacts in place before any growth).
	queue []float64
	qhead int

	// ServiceCV is the coefficient of variation of service times: 0 gives
	// deterministic service, 1 matches exponential-like variability.
	// Request work in TailBench-style servers varies moderately; the
	// default (set by NewQueueSim) is 0.3.
	ServiceCV float64
	// mu and sigma are the lognormal parameters for ServiceCV == paramCV,
	// recomputed by service whenever a caller has changed ServiceCV.
	paramCV, mu, sigma float64

	// Completed counts finished requests.
	Completed uint64
}

// NewQueueSim returns a simulator seeded deterministically, with moderate
// (CV = 0.3) service-time variability.
func NewQueueSim(seed int64) *QueueSim {
	q := &QueueSim{rng: rand.New(rand.NewSource(seed)), ServiceCV: 0.3}
	q.nextArrival = math.Inf(1)
	return q
}

// SetRate sets the arrival rate in requests per cycle (QPS / clock Hz).
// Setting a zero rate stops new arrivals.
func (q *QueueSim) SetRate(lambda float64) {
	if lambda < 0 {
		panic("tailbench: negative arrival rate")
	}
	q.lambda = lambda
	if lambda == 0 {
		q.nextArrival = math.Inf(1)
		return
	}
	q.nextArrival = q.now + q.exp(1/lambda)
}

func (q *QueueSim) exp(mean float64) float64 {
	return q.rng.ExpFloat64() * mean
}

// service draws one service time with mean `mean` and the configured CV
// (lognormal; deterministic when ServiceCV is 0).
func (q *QueueSim) service(mean float64) float64 {
	if q.ServiceCV <= 0 {
		return mean
	}
	if q.ServiceCV != q.paramCV {
		sigma2 := math.Log(1 + q.ServiceCV*q.ServiceCV)
		q.paramCV, q.mu, q.sigma = q.ServiceCV, -sigma2/2, math.Sqrt(sigma2)
	}
	return mean * math.Exp(q.mu+q.sigma*q.rng.NormFloat64())
}

// QueueLen returns the number of requests waiting (not yet in service).
func (q *QueueSim) QueueLen() int { return len(q.queue) - q.qhead }

// pushArrival enqueues one arrival time, compacting the drained front of the
// backing array in place rather than growing past it.
func (q *QueueSim) pushArrival(t float64) {
	if q.qhead > 0 && len(q.queue) == cap(q.queue) {
		n := copy(q.queue, q.queue[q.qhead:])
		q.queue = q.queue[:n]
		q.qhead = 0
	}
	q.queue = append(q.queue, t)
}

// RunEpochAppend advances the simulation by `cycles`, serving requests with
// mean service time meanServiceCycles (reflecting this epoch's CPI), appends
// the response latencies (queueing + service, in cycles) of requests that
// completed during the epoch to dst (pass dst[:0] to reuse its backing across
// epochs) and returns the extended slice. All internal buffers are reused
// across calls, so a warmed simulator allocates nothing once dst has reached
// its high-water capacity.
func (q *QueueSim) RunEpochAppend(dst []float64, cycles, meanServiceCycles float64) []float64 {
	if cycles <= 0 || meanServiceCycles <= 0 {
		panic("tailbench: RunEpochAppend needs positive cycles and service time")
	}
	end := q.now + cycles
	for {
		// Admit all arrivals up to the next service start or epoch end.
		for q.nextArrival <= end {
			q.pushArrival(q.nextArrival)
			q.nextArrival += q.exp(1 / q.lambda)
		}
		if q.qhead == len(q.queue) {
			q.queue = q.queue[:0]
			q.qhead = 0
			break
		}
		start := q.queue[q.qhead]
		if q.serverFree > start {
			start = q.serverFree
		}
		if start >= end {
			break // next request starts in a future epoch
		}
		arrival := q.queue[q.qhead]
		q.qhead++
		finish := start + q.service(meanServiceCycles)
		q.serverFree = finish
		q.Completed++
		dst = append(dst, finish-arrival)
	}
	q.now = end
	return dst
}
