package pgrid

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// statsDigest has the shape of mediation.StatsDigest, the one stored type
// this package cannot import (mediation imports pgrid): strings, a
// time.Time (which holds a pointer) and a slice of structs holding pointers.
type statsDigest struct {
	Origin, Schema string
	Published      time.Time
	Predicates     []triple.PredicateStats
}

// genValues draws values of every type the overlay stores from a small
// alphabet, so equal pairs — equal in content but separately built, never
// aliases — are frequent, plus the cases where == and DeepEqual part ways
// (pointers, NaN) or cannot both be asked (uncomparable and mixed types).
func genValues(rng *rand.Rand) []any {
	word := func() string { return fmt.Sprintf("w%d", rng.Intn(3)) }
	num := func() float64 { return []float64{0, 0.5, math.NaN(), math.Copysign(0, -1)}[rng.Intn(4)] }
	words := func() []string {
		out := make([]string, rng.Intn(3))
		for i := range out {
			out[i] = word()
		}
		return out
	}
	corr := func() schema.Correspondence {
		return schema.Correspondence{SourceAttr: word(), TargetAttr: word(), Confidence: num()}
	}
	sketch := func() *triple.HLL {
		if rng.Intn(2) == 0 {
			return nil
		}
		h := &triple.HLL{}
		h.Add(word())
		return h
	}
	type withPointer struct {
		Name string
		P    *int
	}
	type withInterface struct{ V any }
	n := rng.Intn(2)
	return []any{
		triple.Triple{Subject: word(), Predicate: word(), Object: word()},
		schema.Schema{Name: word(), Domain: word(), Attributes: words()},
		schema.Mapping{ID: word(), Source: word(), Correspondences: []schema.Correspondence{corr()}, Confidence: num()},
		corr(),
		statsDigest{Origin: word(), Published: time.Unix(int64(rng.Intn(2)), 0).In(time.FixedZone("z", 0)),
			Predicates: []triple.PredicateStats{{Predicate: word(), Triples: rng.Intn(2), SubjectSketch: sketch()}}},
		map[string]uint64{word(): uint64(rng.Intn(2))},
		withPointer{Name: word(), P: &n},
		withInterface{V: word()},
		withInterface{V: &n},
		&triple.Triple{Subject: word()},
		[2]float64{num(), num()},
		num(), word(), rng.Intn(2), nil,
	}
}

// TestSameAsMatchesDeepEqual pins sameAs(b).is(a) to reflect.DeepEqual(a, b),
// the equality the store was defined by, over all pairs of generated values.
func TestSameAsMatchesDeepEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	equal := 0
	for round := 0; round < 200; round++ {
		as, bs := genValues(rng), genValues(rng)
		for _, a := range as {
			for _, b := range append(bs, a) {
				want := reflect.DeepEqual(a, b)
				if got := sameAs(b).is(a); got != want {
					t.Fatalf("sameAs(%#v).is(%#v) = %v, DeepEqual = %v", b, a, got, want)
				}
				if want {
					equal++
				}
			}
		}
	}
	if equal < 1000 {
		t.Fatalf("only %d equal pairs generated; the alphabet is too wide to test the true branch", equal)
	}
}

// BenchmarkInsertUnderHotKey inserts a triple through the batch path under
// its predicate key while the node holds 1k or 10k triples there. The triple
// database is a value set, so the two should cost about the same.
func BenchmarkInsertUnderHotKey(b *testing.B) {
	for _, held := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			n := NewNode("bench", keyspace.Key{}, simnet.NewNetwork(), Config{})
			key := keyspace.HashDefault("EMBL#Organism").String()
			value := func(i int) triple.Triple {
				return triple.Triple{Subject: fmt.Sprintf("EMBL:%07d", i), Predicate: "EMBL#Organism", Object: fmt.Sprintf("organism-%d", i%500)}
			}
			for i := 0; i < held; i++ {
				n.db.Insert(value(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1000 == 999 {
					// Back to held, so b.N does not change the database size.
					b.StopTimer()
					for j := i - 999; j < i; j++ {
						n.db.Delete(value(held + j))
					}
					b.StartTimer()
				}
				if len(n.applyBatchLocal([]BatchEntry{{Key: key, Op: OpInsert, Value: value(held + i)}}, true)) != 1 {
					b.Fatal("insert not applied")
				}
			}
		})
	}
}
