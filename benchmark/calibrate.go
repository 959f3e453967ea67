package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

// The sandbox this benchmark runs on is a few cores of a shared host whose
// speed moves by a quarter for minutes at a time, which no run length the
// time cap allows averages out. So the gated run measures the machine beside
// the program: between the slices of the closed loop, and around every
// set-up, with the cluster idle, one goroutine does a fixed amount of work
// that calls nothing of this repository (gob round trips, a loopback TCP
// echo, allocation, hashing, sorting: the same kinds of work the serving
// path does). How long that takes, over calibNominal, is the machine's speed
// factor at that moment, and every time-based gated metric is divided by the
// factor of the slice it was measured in. A change to the program cannot
// move the factor; a slow stretch of the host moves it and the raw numbers
// together.

const (
	// calibNominal is what calibUnits units took on the builder's machine in
	// a quiet stretch. It only fixes the scale: a factor of 1 means "as fast
	// as that machine", so normalised times read like real ones.
	calibNominal = 100 * time.Millisecond
	calibUnits   = 1600
	calibRows    = 32
	calibEcho    = 2048
	calibKeys    = 256
	calibIndex   = 4096
	calibMem     = 16 << 20
	calibCopy    = 64 << 10
)

type calibRow struct{ S, P, O string }

type calibMsg struct {
	From, To string
	Seq      int
	Rows     []calibRow
}

// calibrator owns what a unit of work needs, all of it allocated once: a
// unit itself allocates only what decoding a message does, so a calibration
// never grows the heap enough to start a collection or fault in new pages.
type calibrator struct {
	ln    net.Listener
	conn  net.Conn
	done  chan struct{}
	msg   calibMsg
	pipe  bytes.Buffer
	enc   *gob.Encoder
	dec   *gob.Decoder
	echo  []byte
	keys  []uint64
	index map[string]int
	names []string
	mem   []byte
	sink  uint64
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k := &calibrator{
		ln: ln, done: make(chan struct{}),
		echo:  make([]byte, calibEcho),
		keys:  make([]uint64, 0, calibKeys),
		index: make(map[string]int, calibIndex),
		mem:   make([]byte, calibMem),
	}
	k.enc, k.dec = gob.NewEncoder(&k.pipe), gob.NewDecoder(&k.pipe)
	go func() {
		defer close(k.done)
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		buf := make([]byte, calibEcho)
		for {
			if _, err := io.ReadFull(peer, buf); err != nil {
				return
			}
			if _, err := peer.Write(buf); err != nil {
				return
			}
		}
	}()
	if k.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-k.done
		return nil, err
	}
	k.msg = calibMsg{From: "peer-03", To: "peer-11"}
	for i := 0; i < calibRows; i++ {
		n := strconv.Itoa(i)
		k.msg.Rows = append(k.msg.Rows, calibRow{"Calib:entity-" + n, "Calib#attribute" + n, "value of attribute " + n})
	}
	for i := 0; i < calibIndex; i++ {
		name := "Calib:entity-" + strconv.Itoa(i*7919%calibIndex)
		k.index[name] = i
		k.names = append(k.names, name)
	}
	return k, nil
}

// close releases the connection pair; closing the zero calibrator is a
// no-op.
func (k *calibrator) close() {
	if k.ln == nil {
		return
	}
	k.conn.Close()
	k.ln.Close()
	<-k.done
}

func fnv64(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// unit is one fixed piece of work.
func (k *calibrator) unit(seq int) error {
	// A message through a gob stream, as an overlay send carries it.
	k.msg.Seq = seq
	if err := k.enc.Encode(&k.msg); err != nil {
		return err
	}
	var back calibMsg
	if err := k.dec.Decode(&back); err != nil {
		return err
	}
	// A loopback round trip through another goroutine.
	if _, err := k.conn.Write(k.echo); err != nil {
		return err
	}
	if _, err := io.ReadFull(k.conn, k.echo); err != nil {
		return err
	}
	// Hashing, map look-ups and a sort, as routing, a select and a join do.
	k.keys = k.keys[:0]
	h := uint64(14695981039346656037) + uint64(seq)
	for len(k.keys) < calibKeys {
		for _, r := range back.Rows {
			h = fnv64(fnv64(fnv64(h, r.S), r.P), r.O)
			k.keys = append(k.keys, h+uint64(k.index[k.names[h%calibIndex]]))
		}
	}
	slices.Sort(k.keys)
	// Memory traffic past the caches, as copying rows between layers is.
	half := len(k.mem) / 2
	at := int(k.keys[0] % uint64(half-calibCopy))
	copy(k.mem[half+at:half+at+calibCopy], k.mem[at:at+calibCopy])
	k.sink += k.keys[0]
	return nil
}

// measure runs calibUnits units on the calling goroutine and returns the
// machine's speed factor: time taken ÷ calibNominal (above 1 = slower than
// nominal). It collects before, so the garbage of whatever ran before is
// not charged to it; keeps the collector off meanwhile, so the size of the
// program's heap (a mark's cost) cannot move the factor; and collects after,
// so its own garbage is not charged to whatever runs next.
func (k *calibrator) measure() (float64, error) {
	defer runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < calibUnits; i++ {
		if err := k.unit(i); err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
	}
	return float64(time.Since(t0)) / float64(calibNominal), nil
}
