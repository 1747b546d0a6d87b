package admission

import (
	"fmt"
	"sort"

	"rcbr/internal/ld"
)

// LiveMemory is the Memory scheme restructured for a live switch: the same
// pooled dwell-time estimate — every present call's full bandwidth-level
// history, including the in-progress dwell at the current level — but
// maintained incrementally, so Admit costs O(levels) instead of O(calls).
//
// The pooled weight of level ℓ at time t decomposes into a part that only
// changes on lifecycle events and a part linear in t:
//
//	w_ℓ(t) = flushed_ℓ + active_ℓ·t − sinceSum_ℓ
//
// where flushed_ℓ sums the completed dwells of present calls, active_ℓ
// counts the calls currently at level ℓ, and sinceSum_ℓ sums the times at
// which those calls entered the level. All three are updated in O(1) per
// event (O(levels) on departure, to subtract the leaver's history), so the
// estimate is identical to Memory's without ever walking the call table —
// the difference between a microsecond admit decision and one that scans a
// million calls.
//
// Like every Controller, LiveMemory is not safe for concurrent use; the
// switch-side adapter (switchfab.MemoryAdmitter) wraps one instance per
// port behind that port's serialization.
type LiveMemory struct {
	capacity float64
	target   float64
	levels   []float64
	flushed  []float64 // completed dwell mass per level, present calls only
	active   []float64 // calls currently at each level
	sinceSum []float64 // Σ level-entry times of the calls in active
	calls    map[int]*liveCall

	// weights and probs are reused by dist so Admit stays allocation-free
	// in steady state.
	weights []float64
	probs   []float64
}

// liveCall is one present call's contribution, retained so departure can
// subtract exactly what the call added.
type liveCall struct {
	dwell []float64 // completed dwell per level
	level int       // index of the current level
	since float64   // when the current level was entered
}

// NewLiveMemory builds the incremental history-based controller over the
// given ascending levels.
func NewLiveMemory(levels []float64, capacity, target float64) (*LiveMemory, error) {
	if capacity <= 0 || target <= 0 || target >= 1 {
		return nil, fmt.Errorf("admission: invalid capacity %g or target %g", capacity, target)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("admission: no levels")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			return nil, fmt.Errorf("admission: levels not strictly ascending")
		}
	}
	n := len(levels)
	return &LiveMemory{
		capacity: capacity,
		target:   target,
		levels:   append([]float64(nil), levels...),
		flushed:  make([]float64, n),
		active:   make([]float64, n),
		sinceSum: make([]float64, n),
		calls:    make(map[int]*liveCall),
		weights:  make([]float64, n),
		probs:    make([]float64, n),
	}, nil
}

// index returns the index of the level nearest to rate (ties go down),
// matching stats.LevelHist.Index so LiveMemory and Memory bucket rates
// identically.
func (m *LiveMemory) index(rate float64) int {
	i := sort.SearchFloat64s(m.levels, rate)
	if i == len(m.levels) {
		return len(m.levels) - 1
	}
	if i > 0 && rate-m.levels[i-1] <= m.levels[i]-rate {
		return i - 1
	}
	return i
}

// dist assembles the pooled per-call distribution at time now. The returned
// Dist aliases internal scratch: valid until the next dist call, never
// retained by the Chernoff evaluation.
func (m *LiveMemory) dist(now float64) (ld.Dist, bool) {
	// The pool is defined over the calls present; with none, any remaining
	// weight is subtraction residue, not evidence.
	if len(m.calls) == 0 {
		return ld.Dist{}, false
	}
	var total float64
	for i := range m.levels {
		w := m.flushed[i] + m.active[i]*now - m.sinceSum[i]
		if w < 0 { // floating-point dust from the linear form
			w = 0
		}
		m.weights[i] = w
		total += w
	}
	if total <= 0 {
		return ld.Dist{}, false
	}
	for i, w := range m.weights {
		m.probs[i] = w / total
	}
	return ld.Dist{P: m.probs, X: m.levels}, true
}

// Admit implements Controller.
//
//rcbr:zeroalloc
func (m *LiveMemory) Admit(now, _ float64) bool {
	if len(m.calls) == 0 {
		return true
	}
	dist, ok := m.dist(now)
	if !ok {
		return true
	}
	return chernoffAdmit(dist, m.capacity, m.target, len(m.calls))
}

// OnAdmit implements Controller.
func (m *LiveMemory) OnAdmit(id int, now, rate float64) {
	i := m.index(rate)
	m.calls[id] = &liveCall{
		dwell: make([]float64, len(m.levels)),
		level: i,
		since: now,
	}
	m.active[i]++
	m.sinceSum[i] += now
}

// OnRateChange implements Controller.
func (m *LiveMemory) OnRateChange(id int, now, _, newRate float64) {
	c, ok := m.calls[id]
	if !ok {
		return
	}
	if d := now - c.since; d > 0 {
		c.dwell[c.level] += d
		m.flushed[c.level] += d
	}
	m.active[c.level]--
	m.sinceSum[c.level] -= c.since
	c.level = m.index(newRate)
	c.since = now
	m.active[c.level]++
	m.sinceSum[c.level] += now
}

// OnDepart implements Controller. As in Memory, a departed call's history
// leaves the pool entirely.
func (m *LiveMemory) OnDepart(id int, _, _ float64) {
	c, ok := m.calls[id]
	if !ok {
		return
	}
	m.active[c.level]--
	m.sinceSum[c.level] -= c.since
	for i, d := range c.dwell {
		m.flushed[i] -= d
		if m.flushed[i] < 0 {
			m.flushed[i] = 0
		}
	}
	delete(m.calls, id)
}

// Calls returns the number of calls currently in the system.
func (m *LiveMemory) Calls() int { return len(m.calls) }

// Name implements Controller.
func (m *LiveMemory) Name() string { return "memory-live" }
