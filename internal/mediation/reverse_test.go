package mediation

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gridvine/internal/schema"
)

// reversible is a bidirectional equivalence mapping from source to target
// with two correspondences.
func reversible(source, target string) schema.Mapping {
	m := schema.NewMapping(source, target, schema.Equivalence, schema.Automatic, []schema.Correspondence{
		{SourceAttr: "len", TargetAttr: "size", Confidence: 0.8},
		{SourceAttr: "org", TargetAttr: "name", Confidence: 0.9},
	})
	m.Bidirectional = true
	return m
}

// checkReversed asserts that MappingsFrom(target) at p hands out exactly
// want.Reverse(), field by field and under Reverse's ID — or nothing when
// want is deprecated.
func checkReversed(t *testing.T, p *Peer, want schema.Mapping) {
	t.Helper()
	got, _, err := p.MappingsFrom(context.Background(), want.Target)
	if err != nil {
		t.Fatalf("MappingsFrom(%s): %v", want.Target, err)
	}
	if want.Deprecated {
		if len(got) != 0 {
			t.Fatalf("MappingsFrom(%s) = %v after deprecation, want none", want.Target, got)
		}
		return
	}
	rev, err := want.Reverse()
	if err != nil {
		t.Fatalf("Reverse: %v", err)
	}
	if len(got) != 1 || !sameMapping(&got[0], &rev) {
		t.Fatalf("MappingsFrom(%s) = %+v, want %+v", want.Target, got, rev)
	}
}

// TestMappingsFromReversesStoredVersion publishes a bidirectional mapping,
// then replaces it under the same ID with a new confidence and then a
// deprecation: each read from the target side, repeated so the second hits
// the memo, reflects the version stored at that moment.
func TestMappingsFromReversesStoredVersion(t *testing.T) {
	_, peers := testNetwork(t, 16, 21)
	ctx := context.Background()
	m := reversible("A", "B")
	if _, err := peers[0].InsertMappingContext(ctx, m); err != nil {
		t.Fatalf("InsertMapping: %v", err)
	}
	retuned := m
	retuned.Confidence = 0.5
	retuned.Correspondences = slices.Clone(m.Correspondences)
	retuned.Correspondences[1].Confidence = 0.4
	deprecated := retuned
	deprecated.Deprecated = true

	prev := m
	for _, version := range []schema.Mapping{m, retuned, deprecated} {
		if version.ID != m.ID {
			t.Fatalf("version %+v changed the ID", version)
		}
		if !sameMapping(&version, &prev) {
			if _, err := peers[2].InsertMappingContext(ctx, version); err != nil {
				t.Fatalf("InsertMapping: %v", err)
			}
		}
		for i := 0; i < 2; i++ {
			for _, p := range peers[1:4] {
				checkReversed(t, p, version)
			}
		}
		prev = version
	}
}

// TestMappingsFromConcurrentReplace reads the reverse of a mapping from
// several peers while its confidence is replaced under the same ID: every
// reverse handed out is Reverse() of some published version, and once the
// writer is done every reader sees the last one. Run under -race it checks
// the memo's locking.
func TestMappingsFromConcurrentReplace(t *testing.T) {
	_, peers := testNetwork(t, 8, 22)
	ctx := context.Background()
	versions := []schema.Mapping{reversible("A", "B")}
	for i := 1; i <= 8; i++ {
		v := versions[0]
		v.Confidence = 1 - float64(i)/10
		versions = append(versions, v)
	}
	allowed := map[string]bool{}
	for _, v := range versions {
		rev, _ := v.Reverse()
		allowed[fmt.Sprint(rev)+fmt.Sprint(rev.Confidence)] = true
	}
	if _, err := peers[0].InsertMappingContext(ctx, versions[0]); err != nil {
		t.Fatalf("InsertMapping: %v", err)
	}

	var readers sync.WaitGroup
	var reads atomic.Int64
	done := make(chan struct{})
	for _, p := range peers[1:4] {
		readers.Add(1)
		go func(p *Peer) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, _, err := p.MappingsFrom(ctx, "B")
				if err != nil {
					t.Errorf("MappingsFrom: %v", err)
					return
				}
				for _, rev := range got {
					if !allowed[fmt.Sprint(rev)+fmt.Sprint(rev.Confidence)] {
						t.Errorf("MappingsFrom(B) handed out %v (confidence %v), the reverse of no published version", rev, rev.Confidence)
					}
				}
				reads.Add(1)
			}
		}(p)
	}
	// Each version is read a few times before the next replaces it.
	for i := 1; i < len(versions); i++ {
		for seen := reads.Load(); reads.Load() < seen+6 && !t.Failed(); {
			runtime.Gosched()
		}
		if _, err := peers[4].InsertMappingContext(ctx, versions[i]); err != nil {
			t.Errorf("InsertMapping: %v", err)
		}
	}
	close(done)
	readers.Wait()
	for _, p := range peers[1:4] {
		checkReversed(t, p, versions[len(versions)-1])
	}
}

// reversedInto publishes k bidirectional mappings S0..Sk-1 → R on an
// 8-peer overlay and returns a peer other than the publisher, which has
// read MappingsFrom(R) once.
func reversedInto(tb testing.TB, k int) *Peer {
	_, peers, err := buildPeers(8, 23)
	if err != nil {
		tb.Fatalf("buildPeers: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < k; i++ {
		if _, err := peers[0].InsertMappingContext(ctx, reversible(fmt.Sprint("S", i), "R")); err != nil {
			tb.Fatalf("InsertMapping: %v", err)
		}
	}
	if got, _, err := peers[1].MappingsFrom(ctx, "R"); err != nil || len(got) != k {
		tb.Fatalf("MappingsFrom(R) = %d mappings (%v), want %d", len(got), err, k)
	}
	return peers[1]
}

// TestMappingsFromAllocations pins that a repeated MappingsFrom pays no
// per-mapping reversal: over k bidirectional mappings into one schema, it
// allocates what MappingsAt, the same retrieval without reversal, does,
// give or take less than one allocation per mapping. Each side reads the
// least of five testing.AllocsPerRun readings, which run under
// GOMAXPROCS(1).
func TestMappingsFromAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates testing.AllocsPerRun")
	}
	const k = 16
	p, ctx := reversedInto(t, k), context.Background()
	least := func(f func()) float64 {
		low := testing.AllocsPerRun(20, f)
		for i := 1; i < 5; i++ {
			low = min(low, testing.AllocsPerRun(20, f))
		}
		return low
	}
	from := least(func() { p.MappingsFrom(ctx, "R") })
	at := least(func() { p.MappingsAt(ctx, "R") })
	if from-at >= k {
		t.Errorf("MappingsFrom over %d reversed mappings: %.1f allocations, MappingsAt %.1f — a reversal per mapping", k, from, at)
	} else {
		t.Logf("MappingsFrom %.1f allocations, MappingsAt %.1f, over %d reversed mappings", from, at, k)
	}
}

// BenchmarkMappingsFrom is one mapping lookup as a reformulation wave pays
// it, over simnet: k bidirectional mappings stored at the schema's key, all
// handed out reversed.
func BenchmarkMappingsFrom(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p, ctx := reversedInto(b, k), context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.MappingsFrom(ctx, "R"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
