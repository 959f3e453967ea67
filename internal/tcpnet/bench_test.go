package tcpnet

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// lookupAnswer is the reply to a routed pattern query the benchmark's
// lookup workload ships: 37 rows under one 96-bit key.
func lookupAnswer() pgrid.ExecResponse {
	rows := make([]triple.Triple, 37)
	for i := range rows {
		rows[i] = triple.Triple{
			Subject:   fmt.Sprintf("EMBL:A%05d", 78712+i),
			Predicate: "EMBL#Organism",
			Object:    "Aspergillus niger CBS 513.88",
		}
	}
	return pgrid.ExecResponse{Responsible: true, AppResult: rows, Path: strings.Repeat("01", 4)}
}

// mappingList is the reply to a reformulation's mapping lookup: the three
// mappings stored under one schema's key.
func mappingList() pgrid.ExecResponse {
	values := make([]any, 3)
	for i := range values {
		m := schema.Mapping{
			ID:            fmt.Sprintf("EMBL->S%d#%d", i, i),
			Source:        "EMBL",
			Target:        fmt.Sprintf("S%d", i),
			Bidirectional: true,
			Confidence:    0.9,
		}
		for _, attr := range []string{"Organism", "Length", "Description", "Accession"} {
			m.Correspondences = append(m.Correspondences,
				schema.Correspondence{SourceAttr: attr, TargetAttr: attr + "_" + m.Target, Confidence: 0.95})
		}
		values[i] = m
	}
	return pgrid.ExecResponse{Responsible: true, Values: values, Path: strings.Repeat("10", 4)}
}

// BenchmarkSend times one request/response exchange with an echo handler
// on loopback, allocations on both ends included: a small message (the
// size of a routed pattern), a 64 KB one, and the two answers the serving
// workloads ship most — the in-repo counterpart of the benchmark's
// tcpnet.send_us and tcpnet.send_allocs.
func BenchmarkSend(b *testing.B) {
	for _, bc := range []struct {
		name    string
		payload any
	}{
		{"small", "EMBL#Organism"},
		{"64KB", strings.Repeat("x", 64<<10)},
		{"rows37", lookupAnswer()},
		{"mappings3", mappingList()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := NewTransport()
			defer tr.Close()
			tr.Register("echo", echo)
			ctx := context.Background()
			msg := simnet.Message{Payload: bc.payload}
			if _, err := tr.Send(ctx, "caller", "echo", msg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Send(ctx, "caller", "echo", msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
