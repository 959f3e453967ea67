//go:build unix

package wire_test

import (
	"context"
	"net"
	"syscall"
	"testing"
	"time"

	"gridvine/internal/wire"
)

func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestCancelledWriteWaitsWithoutSpinning holds a Write's receipt back for
// 200 ms after the client's Cancel frame arrived and bounds the CPU the
// process spends meanwhile: the wait for the receipt must block, not poll
// the already-closed ctx.Done().
func TestCancelledWriteWaitsWithoutSpinning(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const hold = 200 * time.Millisecond
	cancelSeen := make(chan time.Duration, 1) // CPU clock when the Cancel arrived
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var id uint64
		for {
			_, msg, err := wire.ReadFrame(conn)
			if err != nil {
				t.Errorf("fake server: %v", err)
				return
			}
			if w, ok := msg.(*wire.Write); ok {
				id = w.ID
			}
			if _, ok := msg.(*wire.Cancel); ok {
				break
			}
		}
		cancelSeen <- cpuTime(t)
		time.Sleep(hold)
		buf, _ := wire.EncodeFrame(wire.TReceipt, &wire.Receipt{ID: id, Applied: 1})
		conn.Write(buf) //nolint:errcheck
	}()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	rec, err := c.Write(ctx, wire.Write{})
	spent := cpuTime(t) - <-cancelSeen
	if err != nil || rec.Applied != 1 {
		t.Fatalf("Write = %+v, %v; want the receipt sent after the cancel", rec, err)
	}
	if spent > hold/2 {
		t.Fatalf("process burned %v of CPU in the %v between Cancel and receipt", spent, hold)
	}
}
