package wire_test

import (
	"context"
	"fmt"
	"testing"

	"gridvine/internal/schema"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

type benchFrame struct {
	t   wire.Type
	msg any
}

// benchRows is n (predicate, object) rows as a subject lookup streams them.
func benchRows(n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("EMBL#Attribute%d", i%12), fmt.Sprintf("value-%d-of-entry", i)}
	}
	return rows
}

// BenchmarkFrameRoundTrip is the wire layer's microbenchmark: EncodeFrame,
// DecodeFrame and DecodeMessage over the frames of one operation, both
// ways — a subject lookup (Query, one 37-row chunk, Trailer), one full
// 128-row chunk, and a 4-triple Write with its Receipt.
func BenchmarkFrameRoundTrip(b *testing.B) {
	cols := []string{"p", "o"}
	pat := triple.Pattern{S: triple.Const("EMBL:A78712"), P: triple.Var("p"), O: triple.Var("o")}
	inserts := make([]triple.Triple, 4)
	for k := range inserts {
		inserts[k] = triple.Triple{Subject: "load:1-0-4711", Predicate: fmt.Sprintf("Load#a%d", k), Object: fmt.Sprintf("v0-4711-%d", k)}
	}
	for _, bc := range []struct {
		name   string
		frames []benchFrame
	}{
		{"lookup", []benchFrame{
			{wire.TQuery, &wire.Query{ID: 1, Peer: "peer-07", Pattern: &pat}},
			{wire.TRowChunk, &wire.RowChunk{ID: 1, Columns: cols, Rows: benchRows(37)}},
			{wire.TTrailer, &wire.Trailer{ID: 1, Columns: cols, Stats: wire.Stats{Rows: 37, Messages: 2, ElapsedMicros: 500}}},
		}},
		{"chunk128", []benchFrame{
			{wire.TRowChunk, &wire.RowChunk{ID: 1, Columns: cols, Rows: benchRows(128)}},
		}},
		{"write4", []benchFrame{
			{wire.TWrite, &wire.Write{ID: 1, Peer: "peer-07", Inserts: inserts}},
			{wire.TReceipt, &wire.Receipt{ID: 1, Applied: 4, Groups: 3, Messages: 6}},
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			size := 0
			for i := 0; i < b.N; i++ {
				size = 0
				for _, f := range bc.frames {
					buf, err := wire.EncodeFrame(f.t, f.msg)
					if err != nil {
						b.Fatal(err)
					}
					t, payload, _, err := wire.DecodeFrame(buf)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := wire.DecodeMessage(t, payload); err != nil {
						b.Fatal(err)
					}
					size += len(buf)
				}
			}
			b.ReportMetric(float64(size), "frame-B/op")
		})
	}
}

// BenchmarkServeQuery times one query served over the wire, Query frame to
// Trailer: one client on loopback TCP to testServer's 8 peers, one query at
// a time, client and server in this process. /plain is a subject lookup
// answered by 3 rows; /reformulated follows an A↔B mapping to 50 rows. Both
// are issued by a peer that stores none of the answer.
func BenchmarkServeQuery(b *testing.B) {
	rows := seedTriples(21) // urn:s0 carries Base#p0, p1 and p2
	for i := 0; i < 25; i++ {
		rows = append(rows,
			triple.Triple{Subject: fmt.Sprintf("urn:a%d", i), Predicate: "A#org", Object: "species-2"},
			triple.Triple{Subject: fmt.Sprintf("urn:b%d", i), Predicate: "B#name", Object: "species-2"})
	}
	nw, _, addr := testServer(b, rows)
	m := schema.NewMapping("A", "B", schema.Equivalence, schema.Manual,
		[]schema.Correspondence{{SourceAttr: "org", TargetAttr: "name", Confidence: 1}})
	m.Bidirectional = true
	ctx := context.Background()
	if _, err := nw.Peer(0).InsertMappingContext(ctx, m); err != nil {
		b.Fatal(err)
	}
	c, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	subject := triple.Pattern{S: triple.Const("urn:s0"), P: triple.Var("p"), O: triple.Var("o")}
	org := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-2")}
	for _, bc := range []struct {
		name string
		q    wire.Query
		rows int
	}{
		{"plain", wire.Query{Peer: remoteIssuer(nw, "urn:s0"), Pattern: &subject}, 3},
		{"reformulated", wire.Query{Peer: remoteIssuer(nw, "A#org", "species-2"), Pattern: &org, Reformulate: true}, 50},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cur, err := c.Query(ctx, bc.q)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, ok := cur.Next(ctx); !ok {
						break
					}
					n++
				}
				if err := cur.Close(); err != nil || n != bc.rows {
					b.Fatalf("%d rows (%v), want %d", n, err, bc.rows)
				}
			}
		})
	}
}
