package switchfab

import (
	"fmt"
	"sync"
	"time"

	"rcbr/internal/admission"
)

// MemoryAdmitter runs the paper's memory-based measurement MBAC (Section VI)
// live inside the switch: one incremental admission.LiveMemory controller
// per output port, created lazily with the capacity the switch reports on
// the first admission decision for that port. Admission state therefore
// shards exactly with the fabric — a setup on port 7 never touches port 9's
// controller, and setups on different ports proceed fully in parallel.
//
// The switch invokes every method with the affected port's mutex held
// (the LifecycleAdmitter contract), which already serializes same-port
// calls; each per-port controller still carries its own mutex so the
// admitter is safe even if driven directly, outside a switch.
//
// Time for the dwell histories is wall-clock seconds since the admitter was
// constructed.
type MemoryAdmitter struct {
	levels []float64
	target float64
	epoch  time.Time

	mu    sync.RWMutex // guards the ports map, not the per-port state
	ports map[int]*portMBAC
}

// portMBAC is one port's admission state.
type portMBAC struct {
	mu  sync.Mutex
	ctl *admission.LiveMemory
}

// NewMemoryAdmitter builds a live memory-based admitter over the given
// ascending bandwidth levels with the given target renegotiation-failure
// probability (0 < target < 1).
func NewMemoryAdmitter(levels []float64, target float64) (*MemoryAdmitter, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("switchfab: memory admitter needs at least one level")
	}
	if target <= 0 || target >= 1 {
		return nil, fmt.Errorf("switchfab: invalid admission target %g", target)
	}
	return &MemoryAdmitter{
		levels: append([]float64(nil), levels...),
		target: target,
		epoch:  time.Now(),
		ports:  make(map[int]*portMBAC),
	}, nil
}

// now is the controller clock: seconds since construction.
func (a *MemoryAdmitter) now() float64 { return time.Since(a.epoch).Seconds() }

// portState returns port's controller, creating it on first use with the
// given capacity. Lifecycle notifications always follow an AdmitCall for the
// same port, so creation happens exactly once, with the true capacity.
func (a *MemoryAdmitter) portState(port int, capacity float64) *portMBAC {
	a.mu.RLock()
	pa := a.ports[port]
	a.mu.RUnlock()
	if pa != nil {
		return pa
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if pa = a.ports[port]; pa == nil {
		ctl, err := admission.NewLiveMemory(a.levels, capacity, a.target)
		if err != nil {
			// capacity <= 0 or non-finite cannot reach here: AddPort
			// validates capacity and the constructor validated the rest.
			return nil
		}
		pa = &portMBAC{ctl: ctl}
		a.ports[port] = pa
	}
	return pa
}

// lookup returns port's controller or nil, without creating one.
func (a *MemoryAdmitter) lookup(port int) *portMBAC {
	a.mu.RLock()
	pa := a.ports[port]
	a.mu.RUnlock()
	return pa
}

// AdmitCall implements LifecycleAdmitter.
func (a *MemoryAdmitter) AdmitCall(port int, rate, _, capacity float64) bool {
	pa := a.portState(port, capacity)
	if pa == nil {
		return false
	}
	pa.mu.Lock()
	ok := pa.ctl.Admit(a.now(), rate)
	pa.mu.Unlock()
	return ok
}

// OnAdmit implements LifecycleAdmitter.
func (a *MemoryAdmitter) OnAdmit(port int, id VCID, rate float64) {
	if pa := a.lookup(port); pa != nil {
		pa.mu.Lock()
		pa.ctl.OnAdmit(int(id), a.now(), rate)
		pa.mu.Unlock()
	}
}

// OnRateChange implements LifecycleAdmitter.
func (a *MemoryAdmitter) OnRateChange(port int, id VCID, oldRate, newRate float64) {
	if pa := a.lookup(port); pa != nil {
		pa.mu.Lock()
		pa.ctl.OnRateChange(int(id), a.now(), oldRate, newRate)
		pa.mu.Unlock()
	}
}

// OnDepart implements LifecycleAdmitter.
func (a *MemoryAdmitter) OnDepart(port int, id VCID, rate float64) {
	if pa := a.lookup(port); pa != nil {
		pa.mu.Lock()
		pa.ctl.OnDepart(int(id), a.now(), rate)
		pa.mu.Unlock()
	}
}

// PortCalls returns the number of calls the admitter currently tracks on
// port (0 for a port it has never seen).
func (a *MemoryAdmitter) PortCalls(port int) int {
	pa := a.lookup(port)
	if pa == nil {
		return 0
	}
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return pa.ctl.Calls()
}
