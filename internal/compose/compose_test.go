package compose

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gridvine/internal/schema"
)

// mkMapping builds a manual mapping with explicit confidence and
// per-correspondence confidence 1.
func mkMapping(src, tgt string, conf float64, attrs [][2]string) schema.Mapping {
	corrs := make([]schema.Correspondence, 0, len(attrs))
	for _, a := range attrs {
		corrs = append(corrs, schema.Correspondence{SourceAttr: a[0], TargetAttr: a[1], Confidence: 1})
	}
	m := schema.NewMapping(src, tgt, schema.Equivalence, schema.Manual, corrs)
	m.Confidence = conf
	return m
}

// graphSource serves mappings from an in-memory adjacency map, charging one
// message per retrieval and recording the schemas consulted.
type graphSource struct {
	out      map[string][]schema.Mapping
	consults []string
	fail     map[string]bool
}

func (g *graphSource) source() MappingSource {
	return func(_ context.Context, name string) ([]schema.Mapping, int, error) {
		g.consults = append(g.consults, name)
		if g.fail[name] {
			return nil, 1, fmt.Errorf("unreachable key of %s", name)
		}
		return g.out[name], 1, nil
	}
}

func chainGraph() (*graphSource, []schema.Mapping) {
	ab := mkMapping("A", "B", 1, [][2]string{{"x", "bx"}, {"y", "by"}})
	bc := mkMapping("B", "C", 0.8, [][2]string{{"bx", "cx"}, {"by", "cy"}})
	cd := mkMapping("C", "D", 0.5, [][2]string{{"cx", "dx"}})
	g := &graphSource{out: map[string][]schema.Mapping{
		"A": {ab}, "B": {bc}, "C": {cd},
	}}
	return g, []schema.Mapping{ab, bc, cd}
}

func TestBuildChain(t *testing.T) {
	g, ms := chainGraph()
	e, err := Build(context.Background(), g.source(), "A#x", Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantPreds := []string{"B#bx", "C#cx", "D#dx"}
	if len(e.Targets) != len(wantPreds) {
		t.Fatalf("targets = %+v, want %v", e.Targets, wantPreds)
	}
	for i, tg := range e.Targets {
		if tg.Predicate != wantPreds[i] {
			t.Errorf("target %d = %s, want %s", i, tg.Predicate, wantPreds[i])
		}
		if tg.Depth != i+1 || len(tg.Path) != i+1 {
			t.Errorf("target %s depth/path = %d/%d", tg.Predicate, tg.Depth, len(tg.Path))
		}
	}
	if got := e.Targets[2].Path; !reflect.DeepEqual(got, []string{ms[0].ID, ms[1].ID, ms[2].ID}) {
		t.Errorf("deep path = %v", got)
	}
	if c := e.Targets[2].Confidence; c != 1*0.8*0.5 {
		t.Errorf("deep confidence = %v", c)
	}
	// The deep composite translates x straight to dx.
	if attr, ok := e.Targets[2].Composed.TranslateAttr("x"); !ok || attr != "dx" {
		t.Errorf("composed translation = %q, %v", attr, ok)
	}
	// C→D drops the y chain: survival 1 of 2 first-hop attrs.
	if l := e.Targets[2].Loss; l != 0.5 {
		t.Errorf("deep loss = %v", l)
	}
	if l := e.Targets[0].Loss; l != 0 {
		t.Errorf("depth-1 loss = %v", l)
	}
	if !reflect.DeepEqual(e.Touched, []string{"A", "B", "C", "D"}) {
		t.Errorf("touched = %v", e.Touched)
	}
	// One retrieval per expandable wave item, one message each.
	if e.BuildMessages != 4 {
		t.Errorf("build messages = %d", e.BuildMessages)
	}
	if e.Reformulations != 3 {
		t.Errorf("reformulations = %d", e.Reformulations)
	}
}

func TestBuildMaxDepth(t *testing.T) {
	g, _ := chainGraph()
	e, err := Build(context.Background(), g.source(), "A#x", Options{MaxDepth: 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(e.Targets) != 2 || e.Targets[1].Predicate != "C#cx" {
		t.Fatalf("targets = %+v", e.Targets)
	}
	// The depth-2 frontier item is not expanded, so C's key is never
	// consulted and a mapping change at C/D cannot affect this entry.
	if !reflect.DeepEqual(e.Touched, []string{"A", "B"}) {
		t.Errorf("touched = %v", e.Touched)
	}
}

func TestBuildConfidenceGate(t *testing.T) {
	g, _ := chainGraph()
	e, err := Build(context.Background(), g.source(), "A#x", Options{MinConfidence: 0.6})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// 1·0.8 = 0.8 passes, 0.8·0.5 = 0.4 is gated.
	if len(e.Targets) != 2 || e.Targets[1].Predicate != "C#cx" {
		t.Fatalf("targets = %+v", e.Targets)
	}
}

func TestBuildVisitedClaimIsWaveOrdered(t *testing.T) {
	// Diamond: A→B and A→C in wave 1, both reach D#dx in wave 2. The BFS
	// claims D#dx for the first wave-order path (through B); the C chain is
	// skipped, exactly as the iterative traversal would.
	ab := mkMapping("A", "B", 1, [][2]string{{"x", "bx"}})
	ac := mkMapping("A", "C", 1, [][2]string{{"x", "cx"}})
	bd := mkMapping("B", "D", 0.9, [][2]string{{"bx", "dx"}})
	cd := mkMapping("C", "D", 0.9, [][2]string{{"cx", "dx"}})
	g := &graphSource{out: map[string][]schema.Mapping{
		"A": {ab, ac}, "B": {bd}, "C": {cd},
	}}
	e, err := Build(context.Background(), g.source(), "A#x", Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var dTargets []Target
	for _, tg := range e.Targets {
		if tg.Predicate == "D#dx" {
			dTargets = append(dTargets, tg)
		}
	}
	if len(dTargets) != 1 {
		t.Fatalf("D#dx targets = %+v", dTargets)
	}
	if want := []string{ab.ID, bd.ID}; !reflect.DeepEqual(dTargets[0].Path, want) {
		t.Errorf("claimed path = %v, want %v", dTargets[0].Path, want)
	}
}

func TestLossPruningStopsFanOut(t *testing.T) {
	// A→B keeps both attributes; B→C keeps one of two (loss 0.5); C→D would
	// continue the lossy chain.
	ab := mkMapping("A", "B", 1, [][2]string{{"x", "bx"}, {"y", "by"}})
	bc := mkMapping("B", "C", 1, [][2]string{{"bx", "cx"}})
	cd := mkMapping("C", "D", 1, [][2]string{{"cx", "dx"}})
	g := &graphSource{out: map[string][]schema.Mapping{
		"A": {ab}, "B": {bc}, "C": {cd},
	}}
	e, err := Build(context.Background(), g.source(), "A#x", Options{MaxLoss: 0.4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(e.Targets) != 1 || e.Targets[0].Predicate != "B#bx" {
		t.Fatalf("targets = %+v", e.Targets)
	}
	// The pruned branch is never expanded: C's key is not consulted.
	for _, name := range g.consults {
		if name == "C" {
			t.Errorf("pruned branch was fanned out: consults = %v", g.consults)
		}
	}
	// Without pruning the whole chain is reachable.
	e2, err := Build(context.Background(), g.source(), "A#x", Options{})
	if err != nil {
		t.Fatalf("Build unpruned: %v", err)
	}
	if len(e2.Targets) != 3 {
		t.Errorf("unpruned targets = %+v", e2.Targets)
	}
}

func TestConflictsCounted(t *testing.T) {
	// Both source attributes funnel into one target attribute downstream.
	ab := mkMapping("A", "B", 1, [][2]string{{"x", "bx"}, {"y", "by"}})
	bc := mkMapping("B", "C", 1, [][2]string{{"bx", "c"}, {"by", "c"}})
	g := &graphSource{out: map[string][]schema.Mapping{"A": {ab}, "B": {bc}}}
	e, err := Build(context.Background(), g.source(), "A#x", Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var deep *Target
	for i := range e.Targets {
		if e.Targets[i].SchemaName == "C" {
			deep = &e.Targets[i]
		}
	}
	if deep == nil {
		t.Fatalf("no C target: %+v", e.Targets)
	}
	if deep.Conflicts != 1 {
		t.Errorf("conflicts = %d, want 1 (x and y collapse onto c)", deep.Conflicts)
	}
}

func TestBuildErrorAbortsUncached(t *testing.T) {
	g, _ := chainGraph()
	g.fail = map[string]bool{"B": true}
	c := NewCache()
	if _, _, err := c.GetOrBuild(context.Background(), g.source(), "A#x", Options{}); err == nil {
		t.Fatal("GetOrBuild should surface the retrieval error")
	}
	if st := c.Stats(); st.Entries != 0 || st.Builds != 0 {
		t.Errorf("failed build cached something: %+v", st)
	}
}

func TestCacheHitMissAndIncrementalInvalidation(t *testing.T) {
	g, _ := chainGraph()
	// Second component disjoint from the chain.
	g.out["X"] = []schema.Mapping{mkMapping("X", "Y", 1, [][2]string{{"u", "yu"}})}
	c := NewCache()
	ctx := context.Background()
	if _, built, err := c.GetOrBuild(ctx, g.source(), "A#x", Options{}); err != nil || !built {
		t.Fatalf("first build: built=%v err=%v", built, err)
	}
	if _, built, err := c.GetOrBuild(ctx, g.source(), "X#u", Options{}); err != nil || !built {
		t.Fatalf("second build: built=%v err=%v", built, err)
	}
	if _, built, err := c.GetOrBuild(ctx, g.source(), "A#x", Options{}); err != nil || built {
		t.Fatalf("expected cache hit, built=%v err=%v", built, err)
	}

	// A mapping change at C invalidates the chain entry only.
	if dropped := c.Invalidate("C", "D"); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if _, ok := c.Lookup("X#u", Options{}); !ok {
		t.Error("disjoint entry was invalidated")
	}
	if _, ok := c.Lookup("A#x", Options{}); ok {
		t.Error("chain entry survived invalidation")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 3 || st.Invalidations != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Version != 1 {
		t.Errorf("version = %d, want 1", st.Version)
	}
}

func TestPutIfCurrentRefusesStaleBuild(t *testing.T) {
	g, _ := chainGraph()
	c := NewCache()
	v := c.Version()
	e, err := Build(context.Background(), g.source(), "A#x", Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e.Version = v
	// The schema graph moves while the build is in flight.
	c.Invalidate("B")
	if c.PutIfCurrent(e) {
		t.Fatal("stale build was installed")
	}
	if _, ok := c.Lookup("A#x", e.Options); ok {
		t.Fatal("stale entry is being served")
	}
}

func TestOptionsKeySeparation(t *testing.T) {
	g, _ := chainGraph()
	c := NewCache()
	ctx := context.Background()
	if _, _, err := c.GetOrBuild(ctx, g.source(), "A#x", Options{MaxDepth: 2}); err != nil {
		t.Fatalf("GetOrBuild: %v", err)
	}
	// Different depth bound: separate closure, not a hit.
	if _, built, err := c.GetOrBuild(ctx, g.source(), "A#x", Options{MaxDepth: 3}); err != nil || !built {
		t.Fatalf("built=%v err=%v; distinct options must not share entries", built, err)
	}
}

func TestBuildNonSchemaPredicate(t *testing.T) {
	if _, err := Build(context.Background(), (&graphSource{}).source(), "plainpred", Options{}); err == nil {
		t.Fatal("expected an error for a predicate without '#'")
	}
}

// refTarget is what the reference enumerator reports per reached predicate.
type refTarget struct {
	pred string
	path []string
	conf float64
}

// referenceClosure is the obviously-correct statement of the reformulation
// rule, the oracle Build (and through it Expand) is checked against: a plain
// FIFO queue over the adjacency map, one predicate at a time, never
// revisiting a predicate. It shares no code with the traversal under test.
func referenceClosure(out map[string][]schema.Mapping, root string, maxDepth int, minConf float64) []refTarget {
	type item struct {
		schemaName, attr string
		path             []string
		conf             float64
	}
	s, a, _ := schema.SplitPredicateURI(root)
	seen := map[string]bool{root: true}
	queue := []item{{schemaName: s, attr: a, conf: 1}}
	var targets []refTarget
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if len(it.path) >= maxDepth {
			continue
		}
		for _, m := range out[it.schemaName] {
			for _, c := range m.Correspondences {
				if c.SourceAttr != it.attr {
					continue
				}
				pred := m.Target + "#" + c.TargetAttr
				if conf := it.conf * m.Confidence; conf >= minConf && !seen[pred] {
					seen[pred] = true
					path := append(append([]string{}, it.path...), m.ID)
					targets = append(targets, refTarget{pred: pred, path: path, conf: conf})
					queue = append(queue, item{schemaName: m.Target, attr: c.TargetAttr, path: path, conf: conf})
				}
				break // only the first correspondence of an attribute translates it
			}
		}
	}
	return targets
}

// randomGraph draws a mapping graph over n schemas with attributes a0..a2:
// random edges (so cycles and chords occur), partial and permuted attribute
// correspondences, confidences that reach below the default gate once
// chained, and bidirectional mappings published at both ends like
// MappingsFrom serves them.
func randomGraph(rng *rand.Rand, n int) map[string][]schema.Mapping {
	out := map[string][]schema.Mapping{}
	name := func(i int) string { return fmt.Sprintf("S%d", i) }
	for e := 0; e < 2*n; e++ {
		src, tgt := rng.Intn(n), rng.Intn(n)
		if src == tgt {
			continue
		}
		var attrs [][2]string
		for _, p := range rng.Perm(3)[:1+rng.Intn(3)] {
			attrs = append(attrs, [2]string{fmt.Sprintf("a%d", p), fmt.Sprintf("a%d", rng.Intn(3))})
		}
		m := mkMapping(name(src), name(tgt), []float64{1, 0.9, 0.5, 0.2, 0.04}[rng.Intn(5)], attrs)
		m.Bidirectional = rng.Intn(3) == 0
		out[m.Source] = append(out[m.Source], m)
		if rev, err := m.Reverse(); err == nil {
			out[m.Target] = append(out[m.Target], rev)
		}
	}
	return out
}

// TestBuildMatchesReferenceClosure checks the one reformulation rule against
// its oracle on seeded random graphs: same targets in the same order with the
// same paths and confidences, and the same reformulation count.
func TestBuildMatchesReferenceClosure(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &graphSource{out: randomGraph(rng, 3+rng.Intn(6))}
		opts := Options{MaxDepth: 1 + rng.Intn(6), MinConfidence: []float64{0.05, 0.3}[rng.Intn(2)]}
		e, err := Build(context.Background(), g.source(), "S0#a0", opts)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		want := referenceClosure(g.out, "S0#a0", opts.MaxDepth, opts.MinConfidence)
		var got []refTarget
		for _, tg := range e.Targets {
			got = append(got, refTarget{pred: tg.Predicate, path: tg.Path, conf: tg.Confidence})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%+v):\nBuild     %+v\nreference %+v", seed, opts, got, want)
		}
		if e.Reformulations != len(want) {
			t.Errorf("seed %d: reformulations = %d, want %d", seed, e.Reformulations, len(want))
		}
	}
}
