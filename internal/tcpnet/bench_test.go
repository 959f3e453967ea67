package tcpnet

import (
	"context"
	"strings"
	"testing"

	"gridvine/internal/simnet"
)

// BenchmarkSend times one request/response exchange with an echo handler
// on loopback: a small message (the size of a routed pattern) and a 64 KB
// one (over the retire threshold, so every exchange pays a dial).
func BenchmarkSend(b *testing.B) {
	for _, bc := range []struct {
		name    string
		payload string
	}{
		{"small", "EMBL#Organism"},
		{"64KB", strings.Repeat("x", 64<<10)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := NewTransport()
			defer tr.Close()
			tr.Register("echo", echo)
			ctx := context.Background()
			msg := simnet.Message{Type: "bench", Payload: bc.payload}
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
