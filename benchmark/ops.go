package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"

	"gridvine/internal/bioworkload"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

type opKind uint8

const (
	opQuery opKind = iota
	opWrite
)

// op is one generated request. A query names its pool entry; a write's
// payload is derived from the seed, the client and the op's position, so
// every write inserts an entity the store has not seen.
type op struct {
	Kind   opKind
	Pool   uint16 // index into workload.pool (queries)
	Issuer uint8  // index into the connected daemon's hosted peers
}

// poolQuery is one distinct query of a workload, with what the corpus says
// its answer must be.
type poolQuery struct {
	query wire.Query
	// truth holds the expected row keys (lookup, join: the corpus decides
	// the answer exactly). Reformulate queries carry bio instead: their
	// ground truth spans every schema and the mapping chain may lose some.
	truth map[string]struct{}
	bio   *bioworkload.Query
	// Filled by the check phase.
	rows [][]string
	cols []string
}

// workload is everything generated before the program under test sees a
// single request.
type workload struct {
	spec     workloadSpec
	seed     int64
	corpus   *bioworkload.Workload
	mappings []schema.Mapping // published for reformulate only
	pool     []poolQuery
	ops      [clients][]op
	// userBytes counts the triple bytes the gated cluster has acknowledged
	// (preload and writes), for store.bytes_per_user_byte.
	userBytes atomic.Int64
}

func triplesBytes(ts []triple.Triple) int64 {
	n := 0
	for _, t := range ts {
		n += len(t.Subject) + len(t.Predicate) + len(t.Object)
	}
	return int64(n)
}

func rowKey(row []string) string { return strings.Join(row, "\x00") }

func buildWorkload(spec workloadSpec, seed int64) (*workload, error) {
	corpus := bioworkload.Generate(bioworkload.Config{
		Schemas: corpusSchemas, Entities: corpusEntities, Seed: corpusSeed,
	})
	w := &workload{spec: spec, seed: seed, corpus: corpus}
	poolRng := rand.New(rand.NewSource(corpusSeed))
	switch spec.Name {
	case "lookup", "mixed_rw":
		w.pool = lookupPool(corpus, poolRng)
	case "reformulate":
		w.pool = reformulatePool(corpus, poolRng)
		w.mappings = mappingGraph(corpus)
	case "join":
		w.pool = joinPool(corpus)
	default:
		return nil, fmt.Errorf("unknown workload %q", spec.Name)
	}
	if len(w.pool) == 0 {
		return nil, fmt.Errorf("workload %s: empty query pool", spec.Name)
	}
	for c := 0; c < clients; c++ {
		// One stream per client, so a client's ops do not depend on how the
		// clients interleave.
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		ops := make([]op, opsPerClient)
		for i := range ops {
			ops[i] = op{
				Kind:   opQuery,
				Pool:   uint16(rng.Intn(len(w.pool))),
				Issuer: uint8(rng.Intn(clusterPeers / clusterDaemons)),
			}
			// Strict alternation keeps the write share of every time slice
			// at one half; a coin flip would let the mix, and with it
			// ops_per_s, wander between slices.
			if spec.Name == "mixed_rw" && i%2 == 0 {
				ops[i].Kind = opWrite
			}
		}
		w.ops[c] = ops
	}
	return w, nil
}

// encodeOps is the byte image of the op list (equal seeds must give equal
// bytes).
func (w *workload) encodeOps() []byte {
	var buf bytes.Buffer
	for c := range w.ops {
		for _, o := range w.ops[c] {
			var rec [4]byte
			rec[0] = byte(o.Kind)
			binary.LittleEndian.PutUint16(rec[1:3], o.Pool)
			rec[3] = o.Issuer
			buf.Write(rec[:])
		}
	}
	return buf.Bytes()
}

// writePayload is the entity write op number seq of client c inserts.
func (w *workload) writePayload(c, seq int) []triple.Triple {
	subject := fmt.Sprintf("load:%d-%d-%d", w.seed, c, seq)
	ts := make([]triple.Triple, writeTriples)
	for k := range ts {
		ts[k] = triple.Triple{
			Subject:   subject,
			Predicate: fmt.Sprintf("Load#a%d", k),
			Object:    fmt.Sprintf("v%d-%d-%d", c, seq, k),
		}
	}
	return ts
}

func lookupPool(corpus *bioworkload.Workload, rng *rand.Rand) []poolQuery {
	bySubject := map[string]map[string]struct{}{}
	for _, t := range corpus.Triples() {
		if bySubject[t.Subject] == nil {
			bySubject[t.Subject] = map[string]struct{}{}
		}
		bySubject[t.Subject][rowKey([]string{t.Predicate, t.Object})] = struct{}{}
	}
	subjects := corpus.Subjects()
	rng.Shuffle(len(subjects), func(i, j int) { subjects[i], subjects[j] = subjects[j], subjects[i] })
	if len(subjects) > lookupPoolSize {
		subjects = subjects[:lookupPoolSize]
	}
	pool := make([]poolQuery, len(subjects))
	for i, s := range subjects {
		pool[i] = poolQuery{
			query: wire.Query{Pattern: &triple.Pattern{S: triple.Const(s), P: triple.Var("p"), O: triple.Var("o")}},
			truth: bySubject[s],
		}
	}
	return pool
}

func reformulatePool(corpus *bioworkload.Workload, rng *rand.Rand) []poolQuery {
	qs := corpus.Queries(reformPoolSize, rng)
	pool := make([]poolQuery, len(qs))
	for i := range qs {
		pat := qs[i].Pattern
		pool[i] = poolQuery{
			query: wire.Query{Pattern: &pat, Reformulate: true},
			bio:   &qs[i],
		}
	}
	return pool
}

// mappingGraph is the ground-truth chain S[i]→S[i+1] plus a few chords, so
// the graph has cycles and the BFS has visited-set work to do.
func mappingGraph(corpus *bioworkload.Workload) []schema.Mapping {
	names := corpus.SchemaNames()
	var out []schema.Mapping
	for i := 0; i+1 < len(names); i++ {
		if m, ok := corpus.GroundTruthMapping(names[i], names[i+1]); ok {
			out = append(out, m)
		}
	}
	for k := 0; k < chordMappings; k++ {
		a, b := names[(3*k)%len(names)], names[(3*k+5)%len(names)]
		if m, ok := corpus.GroundTruthMapping(a, b); ok {
			out = append(out, m)
		}
	}
	return out
}

// joinPool is one RDQL shape over every adjacent attribute pair of every
// schema: SELECT ?x, ?b WHERE (?x, <S#a1>, ?a), (?x, <S#a2>, ?b).
func joinPool(corpus *bioworkload.Workload) []poolQuery {
	var pool []poolQuery
	for _, info := range corpus.Schemas {
		// subject → attribute → object, for this schema.
		values := map[string]map[string]string{}
		for _, t := range corpus.TriplesOf(info.Schema.Name) {
			if values[t.Subject] == nil {
				values[t.Subject] = map[string]string{}
			}
			values[t.Subject][t.Predicate] = t.Object
		}
		attrs := append([]string(nil), info.Schema.Attributes...)
		sort.Strings(attrs)
		for i := 0; i+1 < len(attrs); i++ {
			p1, p2 := info.Schema.PredicateURI(attrs[i]), info.Schema.PredicateURI(attrs[i+1])
			truth := map[string]struct{}{}
			for subject, byPred := range values {
				_, has1 := byPred[p1]
				b, has2 := byPred[p2]
				if has1 && has2 {
					truth[rowKey([]string{subject, b})] = struct{}{}
				}
			}
			if len(truth) == 0 {
				continue
			}
			pool = append(pool, poolQuery{
				query: wire.Query{RDQL: fmt.Sprintf("SELECT ?x, ?b WHERE (?x, <%s>, ?a), (?x, <%s>, ?b)", p1, p2)},
				truth: truth,
			})
		}
	}
	return pool
}
