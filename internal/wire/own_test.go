package wire

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"gridvine/internal/codec"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// eachString visits every string reachable from v.
func eachString(v reflect.Value, visit func(string)) {
	switch v.Kind() {
	case reflect.String:
		visit(v.String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachString(v.Field(i), visit)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachString(v.Index(i), visit)
		}
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			eachString(v.Elem(), visit)
		}
	}
}

// TestWrittenValuesOwnTheirBytes: a client's Write is stored as the server
// decoded it — on the issuer's own leaf directly, on every other leaf of
// the process through an in-process delivery that hands the payload over
// uncopied (simnet here, a daemon's staging there). No stored string may
// point into the frame it arrived in: a substring kept would pin the whole
// frame. The stores checked are the overlay's and each peer's triple
// database.
func TestWrittenValuesOwnTheirBytes(t *testing.T) {
	ov, err := pgrid.Build(simnet.NewNetwork(), pgrid.BuildOptions{Peers: 8, ReplicaFactor: 2, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	var peers []*mediation.Peer
	for _, n := range ov.Nodes() {
		peers = append(peers, mediation.NewPeer(n))
	}
	issuer := peers[0]

	w := &Write{
		Schemas:  []schema.Schema{schema.NewSchema("Own", "d", "a", "b")},
		Mappings: []schema.Mapping{schema.NewMapping("Own", "Other", schema.Equivalence, schema.Manual, []schema.Correspondence{{SourceAttr: "a", TargetAttr: "x"}})},
	}
	// Subjects led by these bytes spread over the whole trie.
	for _, lead := range []byte{0x10, 0x30, 0x50, 0x70, 0x90, 0xb0, 0xd0, 0xf0} {
		s := string([]byte{lead}) + "-own"
		w.Inserts = append(w.Inserts, triple.Triple{Subject: s, Predicate: "Own#a", Object: "value-of-" + s})
	}
	frame, err := EncodeFrame(TWrite, w)
	if err != nil {
		t.Fatal(err)
	}
	// Decoded as the server decodes a frame it read: from a buffer of its
	// own, which the message may point into.
	payload := frame[codec.FrameHeader:]
	c := codec.Decoder(payload)
	msg, err := walk{&c}.decode(TWrite)
	if err != nil {
		t.Fatal(err)
	}
	b := batchOf(msg.(*Write))
	if rec, err := issuer.Write(context.Background(), b); err != nil || rec.Applied != b.Len() {
		t.Fatalf("write: receipt %+v, err %v", rec, err)
	}

	lo := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
	hi := lo + uintptr(len(payload))
	own := issuer.Node().Path()
	var onOwnLeaf, elsewhere int
	for _, p := range peers {
		items, _ := p.Node().DumpState()
		stored := []any{items, p.DB().All()}
		n := 0
		eachString(reflect.ValueOf(stored), func(s string) {
			if len(s) == 0 {
				return
			}
			n++
			if at := uintptr(unsafe.Pointer(unsafe.StringData(s))); lo <= at && at < hi {
				t.Errorf("%s stores %q inside the write's frame", p.Node().ID(), s)
			}
		})
		if p.Node().Path() == own {
			onOwnLeaf += n
		} else {
			elsewhere += n
		}
	}
	runtime.KeepAlive(payload)
	if onOwnLeaf == 0 || elsewhere == 0 {
		t.Fatalf("%d strings stored on the issuer's leaf, %d elsewhere; the write must land on both", onOwnLeaf, elsewhere)
	}
}
