package main

import "testing"

var testTree = map[string]string{"root": "", "a": "root", "b": "root", "c": "a"}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{name: "root", req: 1, start: 0, end: 100},
		{name: "a", req: 1, start: 10, end: 40},
		{name: "b", req: 1, start: 30, end: 60}, // overlaps a: the union counts once
		{name: "c", req: 1, start: 20, end: 30},
		// Another operation's spans never nest into req 1.
		{name: "root", req: 2, start: 0, end: 10},
		{name: "a", req: 2, start: 2, end: 4},
	}
	b := analyze(spans, testTree)
	if b.overruns != 0 {
		t.Fatalf("overruns = %d, want 0", b.overruns)
	}
	self := func(name string, q float64) float64 { return b.byName[name].self.quantile(q) }
	if got := self("root", 1); got != 50 { // 100 - |[10,60]|
		t.Errorf("root self (req 1) = %g, want 50", got)
	}
	if got := self("root", 0); got != 8 { // 10 - 2
		t.Errorf("root self (req 2) = %g, want 8", got)
	}
	if got := self("a", 1); got != 20 { // 30 - 10
		t.Errorf("a self = %g, want 20", got)
	}
	if got := self("c", 1); got != 10 {
		t.Errorf("leaf self = %g, want its duration 10", got)
	}
}

// Without overlapping siblings, self times partition the roots' time, so
// the stage budget's shares add up to 1.
func TestSelfTimesPartitionRootTime(t *testing.T) {
	spans := []span{
		{name: "root", req: 1, start: 0, end: 100},
		{name: "a", req: 1, start: 10, end: 40},
		{name: "c", req: 1, start: 20, end: 30},
		{name: "b", req: 1, start: 50, end: 60},
		{name: "root", req: 2, start: 5, end: 15},
	}
	b := analyze(spans, testTree)
	var sum float64
	for _, st := range b.byName {
		sum += st.selfSum
	}
	if sum != b.rootSum || b.rootSum != 110 {
		t.Errorf("self times sum to %g, roots to %g; want both 110", sum, b.rootSum)
	}
}

func TestChildOutsideParentIsAnOverrun(t *testing.T) {
	spans := []span{
		{name: "root", req: 1, start: 0, end: 100},
		{name: "a", req: 1, start: 90, end: 120}, // ends after its parent
		{name: "b", req: 7, start: 0, end: 1},    // no parent in its operation
	}
	b := analyze(spans, testTree)
	if b.overruns != 2 {
		t.Errorf("overruns = %d, want 2", b.overruns)
	}
	if got := b.byName["root"].self.quantile(0.5); got != 100 {
		t.Errorf("root self = %g; an overrunning child must not be subtracted", got)
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	if got := covered(10, 20, [][2]int64{{0, 12}, {15, 30}, {16, 18}}); got != 7 {
		t.Errorf("covered = %d, want 7 ([10,12] + [15,20])", got)
	}
}
