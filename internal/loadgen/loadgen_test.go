package loadgen_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"gridvine"
	"gridvine/internal/loadgen"
	"gridvine/internal/mediation"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// serve hosts a small in-memory network, preloaded with the query
// namespace, behind an in-process wire server and returns its address.
func serve(t *testing.T) string {
	t.Helper()
	nw, err := gridvine.NewNetwork(gridvine.Options{Peers: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	var b mediation.Batch
	for i := 0; i < 20; i++ {
		b.InsertTriple(triple.Triple{Subject: fmt.Sprintf("urn:b%d", i), Predicate: "Bench#p", Object: fmt.Sprintf("v%d", i)})
	}
	if rec, err := nw.Peer(0).Write(context.Background(), &b); err != nil || rec.Applied != b.Len() {
		t.Fatalf("preload: receipt %+v, err %v", rec, err)
	}
	var hosted []wire.Hosted
	for _, p := range nw.Peers() {
		hosted = append(hosted, wire.Hosted{Peer: p})
	}
	srv := wire.NewServer(0, hosted)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// TestRunMixes drives Run against a live server for ~200 ms per mix and
// checks the aggregate is coherent and that WriteRatio's endpoints mean
// what they say: 1 issues no queries, 0 (the zero value) no writes.
func TestRunMixes(t *testing.T) {
	addr := serve(t)
	for _, ratio := range []float64{0.5, 1, 0} {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			Addrs:       []string{addr},
			Connections: 4,
			Duration:    200 * time.Millisecond,
			WriteRatio:  ratio,
			Seed:        1,
		})
		if err != nil {
			t.Fatalf("ratio %v: %v", ratio, err)
		}
		if res.Ops == 0 || res.Ops != res.Queries+res.Writes || res.Errors != 0 {
			t.Fatalf("ratio %v: ops=%d queries=%d writes=%d errors=%d, want error-free progress", ratio, res.Ops, res.Queries, res.Writes, res.Errors)
		}
		if res.P50Micros > res.P99Micros || res.QPS <= 0 {
			t.Fatalf("ratio %v: p50=%dµs p99=%dµs qps=%.1f", ratio, res.P50Micros, res.P99Micros, res.QPS)
		}
		switch ratio {
		case 1:
			if res.Queries != 0 || res.Rows != 0 {
				t.Fatalf("WriteRatio 1 issued %d queries", res.Queries)
			}
		case 0:
			if res.Writes != 0 || res.Rows == 0 {
				t.Fatalf("WriteRatio 0 issued %d writes and streamed %d rows", res.Writes, res.Rows)
			}
		default:
			if res.Queries == 0 || res.Writes == 0 {
				t.Fatalf("mixed run issued %d queries and %d writes, want both", res.Queries, res.Writes)
			}
		}
	}
}

func TestRunRequiresAddrs(t *testing.T) {
	if _, err := loadgen.Run(context.Background(), loadgen.Config{}); err == nil {
		t.Fatal("Run without addresses must fail")
	}
}
