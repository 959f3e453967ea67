package bayes

import (
	"math"
	"testing"

	"gridvine/internal/schema"
)

// identityMapping builds a mapping translating each attribute to itself —
// composing such mappings around any cycle yields the identity.
func identityMapping(src, tgt string, attrs ...string) schema.Mapping {
	var corrs []schema.Correspondence
	for _, a := range attrs {
		corrs = append(corrs, schema.Correspondence{SourceAttr: a, TargetAttr: a, Confidence: 0.8})
	}
	return schema.NewMapping(src, tgt, schema.Equivalence, schema.Automatic, corrs)
}

// shiftedMapping translates attr[i] → attr[i+1 mod n]: correct-looking in
// isolation but inconsistent inside identity cycles.
func shiftedMapping(src, tgt string, attrs ...string) schema.Mapping {
	var corrs []schema.Correspondence
	for i, a := range attrs {
		corrs = append(corrs, schema.Correspondence{
			SourceAttr: a,
			TargetAttr: attrs[(i+1)%len(attrs)],
			Confidence: 0.8,
		})
	}
	return schema.NewMapping(src, tgt, schema.Equivalence, schema.Automatic, corrs)
}

func TestEnumerateCyclesTriangle(t *testing.T) {
	ms := schema.NewMappingSet()
	ms.Add(identityMapping("A", "B", "x", "y"))
	ms.Add(identityMapping("B", "C", "x", "y"))
	ms.Add(identityMapping("C", "A", "x", "y"))
	cycles := EnumerateCycles(ms, 4)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(cycles))
	}
	c := cycles[0]
	if len(c.Steps) != 3 {
		t.Errorf("cycle length = %d", len(c.Steps))
	}
	if !c.Informative || c.Consistency != 1.0 {
		t.Errorf("cycle = %+v", c)
	}
}

func TestEnumerateCyclesNoCycle(t *testing.T) {
	ms := schema.NewMappingSet()
	ms.Add(identityMapping("A", "B", "x"))
	ms.Add(identityMapping("B", "C", "x"))
	if cycles := EnumerateCycles(ms, 5); len(cycles) != 0 {
		t.Errorf("chain should have no cycles, got %d", len(cycles))
	}
}

func TestEnumerateCyclesTwoCycle(t *testing.T) {
	// Two distinct unidirectional mappings A→B and B→A form a 2-cycle.
	ms := schema.NewMappingSet()
	ms.Add(identityMapping("A", "B", "x", "y"))
	ms.Add(identityMapping("B", "A", "x", "y"))
	cycles := EnumerateCycles(ms, 4)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(cycles))
	}
	if cycles[0].Consistency != 1.0 {
		t.Errorf("consistency = %v", cycles[0].Consistency)
	}
}

func TestBidirectionalMappingNotSelfCycle(t *testing.T) {
	// One bidirectional mapping must not form a cycle with its own reverse.
	ms := schema.NewMappingSet()
	m := identityMapping("A", "B", "x")
	m.Bidirectional = true
	ms.Add(m)
	if cycles := EnumerateCycles(ms, 4); len(cycles) != 0 {
		t.Errorf("self-reverse cycle found: %d", len(cycles))
	}
}

func TestBidirectionalTraversalInCycle(t *testing.T) {
	// A→B (uni), C→B (bidirectional, traversed in reverse), C→A... build:
	// A→B, then B→C via reverse of (C→B), then C→A closes the cycle.
	ms := schema.NewMappingSet()
	ms.Add(identityMapping("A", "B", "x", "y"))
	cb := identityMapping("C", "B", "x", "y")
	cb.Bidirectional = true
	ms.Add(cb)
	ms.Add(identityMapping("C", "A", "x", "y"))
	cycles := EnumerateCycles(ms, 4)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(cycles))
	}
	if cycles[0].Consistency != 1.0 {
		t.Errorf("consistency = %v", cycles[0].Consistency)
	}
}

func TestCycleInconsistencyDetected(t *testing.T) {
	ms := schema.NewMappingSet()
	ms.Add(identityMapping("A", "B", "x", "y", "z"))
	ms.Add(identityMapping("B", "C", "x", "y", "z"))
	ms.Add(shiftedMapping("C", "A", "x", "y", "z")) // corrupts the closure
	cycles := EnumerateCycles(ms, 4)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	if cycles[0].Consistency != 0 {
		t.Errorf("shifted cycle consistency = %v, want 0", cycles[0].Consistency)
	}
}

func TestCycleDedup(t *testing.T) {
	// A triangle of bidirectional mappings yields the same ID set in both
	// walk directions: deduplication must keep one.
	ms := schema.NewMappingSet()
	for _, pair := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "A"}} {
		m := identityMapping(pair[0], pair[1], "x")
		m.Bidirectional = true
		ms.Add(m)
	}
	cycles := EnumerateCycles(ms, 4)
	if len(cycles) != 1 {
		t.Errorf("cycles = %d, want 1 after dedup", len(cycles))
	}
}

func TestMaxLenRespected(t *testing.T) {
	ms := schema.NewMappingSet()
	ms.Add(identityMapping("A", "B", "x"))
	ms.Add(identityMapping("B", "C", "x"))
	ms.Add(identityMapping("C", "D", "x"))
	ms.Add(identityMapping("D", "A", "x"))
	if cycles := EnumerateCycles(ms, 3); len(cycles) != 0 {
		t.Errorf("4-cycle found despite maxLen=3: %d", len(cycles))
	}
	if cycles := EnumerateCycles(ms, 4); len(cycles) != 1 {
		t.Errorf("4-cycle not found with maxLen=4")
	}
}

func TestAssessRaisesConsistentBeliefs(t *testing.T) {
	ms := schema.NewMappingSet()
	ms.Add(identityMapping("A", "B", "x", "y"))
	ms.Add(identityMapping("B", "C", "x", "y"))
	ms.Add(identityMapping("C", "A", "x", "y"))
	a := Assess(ms, AssessorConfig{})
	if len(a.Evidence) != 1 {
		t.Fatalf("evidence = %d", len(a.Evidence))
	}
	for id, p := range a.Posteriors {
		if p <= 0.8 {
			t.Errorf("consistent mapping %s posterior = %v, want > prior 0.8", id, p)
		}
	}
	if len(a.ToDeprecate) != 0 {
		t.Errorf("ToDeprecate = %v", a.ToDeprecate)
	}
}

func TestAssessDetectsPlantedError(t *testing.T) {
	// Schemas A..D fully meshed with identity mappings except one shifted
	// (wrong) mapping: the wrong one participates only in inconsistent
	// cycles and must be singled out.
	ms := schema.NewMappingSet()
	attrs := []string{"x", "y", "z"}
	good := []schema.Mapping{
		identityMapping("A", "B", attrs...),
		identityMapping("B", "C", attrs...),
		identityMapping("C", "A", attrs...),
		identityMapping("C", "D", attrs...),
		identityMapping("D", "A", attrs...),
	}
	for _, m := range good {
		ms.Add(m)
	}
	bad := shiftedMapping("B", "D", attrs...)
	ms.Add(bad)

	a := Assess(ms, AssessorConfig{MaxCycleLen: 4})
	if a.Posteriors[bad.ID] >= 0.4 {
		t.Errorf("bad mapping posterior = %v, want < 0.4", a.Posteriors[bad.ID])
	}
	for _, m := range good {
		if a.Posteriors[m.ID] < 0.7 {
			t.Errorf("good mapping %s posterior = %v", m.ID, a.Posteriors[m.ID])
		}
	}
	found := false
	for _, id := range a.ToDeprecate {
		if id == bad.ID {
			found = true
		} else {
			t.Errorf("good mapping %s wrongly deprecated", id)
		}
	}
	if !found {
		t.Error("bad mapping not deprecated")
	}
}

func TestManualMappingsClamped(t *testing.T) {
	ms := schema.NewMappingSet()
	// Manual mapping in an inconsistent cycle stays at probability 1; the
	// automatic ones absorb the blame.
	manual := schema.NewMapping("A", "B", schema.Equivalence, schema.Manual, []schema.Correspondence{
		{SourceAttr: "x", TargetAttr: "x", Confidence: 1},
		{SourceAttr: "y", TargetAttr: "y", Confidence: 1},
	})
	ms.Add(manual)
	ms.Add(identityMapping("B", "C", "x", "y"))
	ms.Add(shiftedMapping("C", "A", "x", "y"))
	a := Assess(ms, AssessorConfig{})
	if p := a.Posteriors[manual.ID]; p < 0.99 {
		t.Errorf("manual posterior = %v, want ≈1", p)
	}
	for _, id := range a.ToDeprecate {
		if id == manual.ID {
			t.Error("manual mapping must never be deprecated")
		}
	}
}

func TestAssessNoCyclesKeepsPriors(t *testing.T) {
	ms := schema.NewMappingSet()
	m := identityMapping("A", "B", "x")
	ms.Add(m)
	a := Assess(ms, AssessorConfig{})
	if p := a.Posteriors[m.ID]; math.Abs(p-0.8) > 1e-9 {
		t.Errorf("cycle-free posterior = %v, want prior 0.8", p)
	}
}

func TestUninformativeCycleSkipped(t *testing.T) {
	// Mappings whose correspondences do not chain produce no evidence.
	ms := schema.NewMappingSet()
	ms.Add(schema.NewMapping("A", "B", schema.Equivalence, schema.Automatic,
		[]schema.Correspondence{{SourceAttr: "x", TargetAttr: "y", Confidence: 0.8}}))
	ms.Add(schema.NewMapping("B", "A", schema.Equivalence, schema.Automatic,
		[]schema.Correspondence{{SourceAttr: "z", TargetAttr: "w", Confidence: 0.8}}))
	a := Assess(ms, AssessorConfig{})
	if len(a.Evidence) != 0 {
		t.Errorf("evidence = %v, want none (no chaining attributes)", a.Evidence)
	}
}

func TestDeprecatedMappingsExcludedFromAnalysis(t *testing.T) {
	ms := schema.NewMappingSet()
	ms.Add(identityMapping("A", "B", "x"))
	ms.Add(identityMapping("B", "C", "x"))
	closer := identityMapping("C", "A", "x")
	ms.Add(closer)
	ms.SetDeprecated(closer.ID, true)
	if cycles := EnumerateCycles(ms, 4); len(cycles) != 0 {
		t.Errorf("deprecated mapping still closes cycles: %d", len(cycles))
	}
}
