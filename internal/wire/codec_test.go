package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// frameCase pairs a frame type with a fresh message of the type it carries.
type frameCase struct {
	t   Type
	msg any
}

func frameTypes() []frameCase {
	return []frameCase{
		{TQuery, &Query{}}, {TRowChunk, &RowChunk{}}, {TTrailer, &Trailer{}}, {TWrite, &Write{}},
		{TReceipt, &Receipt{}}, {TCancel, &Cancel{}}, {TStatsReq, &StatsReq{}}, {TStats, &DaemonStats{}},
		{TDumpReq, &DumpReq{}}, {TDump, &Dump{}},
	}
}

// enums are the types the layout gives one byte and a range; fill keeps
// them at 1, which every one of them admits.
var enums = map[reflect.Type]bool{
	reflect.TypeOf(triple.TermKind(0)):    true,
	reflect.TypeOf(schema.MappingType(0)): true,
	reflect.TypeOf(schema.Origin(0)):      true,
}

// fill sets every field of v, at every depth, to a non-zero value that
// differs from its neighbours': a field the codec forgets, or swaps with
// another of its type, comes back different. Integers alternate sign and
// reach past 32 bits so the zigzag and the long varints are exercised.
func fill(t *testing.T, v reflect.Value, n *int64) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%v has unexported field %s: the codec cannot carry it", v.Type(), v.Type().Field(i).Name)
			}
			fill(t, v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), n)
		fill(t, v.Index(1), n)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Uint64:
		v.SetUint(1<<63 + uint64(*n))
	case reflect.Int, reflect.Int64:
		switch {
		case enums[v.Type()]:
			v.SetInt(1)
		case *n%2 == 0:
			v.SetInt(*n << 33)
		default:
			v.SetInt(-*n)
		}
	default:
		t.Fatalf("fill: %v fields are not part of the layout", v.Kind())
	}
}

func filled(t *testing.T, msg any) any {
	var n int64
	fill(t, reflect.ValueOf(msg).Elem(), &n)
	return msg
}

// roundTrip sends msg through EncodeFrame and both decoding paths.
func roundTrip(t *testing.T, typ Type, msg any) []byte {
	t.Helper()
	frame, err := EncodeFrame(typ, msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	gotType, payload, n, err := DecodeFrame(frame)
	if err != nil || gotType != typ || n != len(frame) {
		t.Fatalf("DecodeFrame(%T) = type %d, %d of %d bytes, %v", msg, gotType, n, len(frame), err)
	}
	got, err := DecodeMessage(typ, payload)
	if err != nil {
		t.Fatalf("DecodeMessage(%T): %v", msg, err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("%T came back different:\n got %+v\nwant %+v", msg, got, msg)
	}
	if _, got, err = ReadFrame(bytes.NewReader(frame)); err != nil || !reflect.DeepEqual(got, msg) {
		t.Fatalf("ReadFrame(%T) = %+v, %v", msg, got, err)
	}
	return frame
}

// TestCodecRoundTripsEveryField is the guard against a field added to a
// message (or to a struct it embeds, SearchOptions and DaemonStats first)
// and forgotten in codec.go: with every field at every depth non-zero and
// distinct, what is not carried comes back zero and fails DeepEqual. The
// zero message of every type round-trips too: empty slices are nil on both
// sides, an absent Pattern stays absent.
func TestCodecRoundTripsEveryField(t *testing.T) {
	for _, ft := range frameTypes() {
		roundTrip(t, ft.t, ft.msg)
		roundTrip(t, ft.t, filled(t, ft.msg))
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current layout")

// TestCodecGoldenFrames compares the frame of every type's filled message
// — header, checksum and payload — with the one committed under
// testdata/golden. A failure means the bytes on the wire changed: clients
// and daemons from the two sides of that change do not interoperate, so
// rerun with -update-golden only when that is intended.
func TestCodecGoldenFrames(t *testing.T) {
	for _, ft := range frameTypes() {
		frame := roundTrip(t, ft.t, filled(t, ft.msg))
		name := filepath.Join("testdata", "golden", fmt.Sprintf("%02d-%s.hex", ft.t, reflect.TypeOf(ft.msg).Elem().Name()))
		if *updateGolden {
			if err := os.WriteFile(name, []byte(hex.EncodeToString(frame)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hex.DecodeString(strings.TrimSpace(string(text)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%T frame changed:\n got %x\nwant %x", ft.msg, frame, want)
		}
		// The committed bytes, not only today's encoder output, decode.
		if _, msg, err := ReadFrame(bytes.NewReader(want)); err != nil || !reflect.DeepEqual(msg, ft.msg) {
			t.Errorf("%s decodes to %+v, %v", name, msg, err)
		}
	}
}

// payloadOf builds a raw payload from uvarints and literal bytes.
func payloadOf(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			b = binary.AppendUvarint(b, uint64(p))
		case string:
			b = append(b, p...)
		}
	}
	return b
}

// hostilePayloads are well-framed payloads the decoder must refuse. The
// first two are the allocation attacks: a RowChunk claiming 2^40 rows and a
// string claiming more bytes than the payload has.
var hostilePayloads = []struct {
	name    string
	t       Type
	payload []byte
}{
	{"2^40 rows", TRowChunk, payloadOf(1, 0, 1<<40)},
	{"string past the end", TDumpReq, payloadOf(1, 200, "short")},
	{"2^40 triples", TWrite, payloadOf(1, 0, 1<<40)},
	{"trailing byte", TCancel, payloadOf(1, 0)},
	{"empty", TCancel, nil},
	{"varint padded with a zero byte", TCancel, []byte{0x81, 0x00}},
	{"varint of eleven bytes", TCancel, bytes.Repeat([]byte{0xff}, 11)},
	{"bool byte 2", TQuery, payloadOf(1, 0, 2)},
	{"term kind 3", TQuery, payloadOf(1, 0, 1, 3, 0, 0, 0, 0, 0)},
	{"truncated float", TQuery, payloadOf(1, 0, 0, 0, 0, 0, 0, 0, 0, "1234")},
}

// TestDecodeRefusesHostilePayloads pins what the decoder rejects, and that
// a refused count costs nothing: the claim is checked against the bytes
// left before anything is allocated for it. TotalAlloc is process-wide, so
// goroutines that earlier tests leave winding down can add to one reading;
// the decoder's own cost is the same on every try, so the least of a few
// readings is the one that counts.
func TestDecodeRefusesHostilePayloads(t *testing.T) {
	for _, h := range hostilePayloads {
		grew := uint64(math.MaxUint64)
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			msg, err := DecodeMessage(h.t, h.payload)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFrame) || msg != nil {
				t.Errorf("%s: DecodeMessage = %+v, %v; want ErrBadFrame", h.name, msg, err)
			}
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > 4096 {
			t.Errorf("%s: refusing a %d-byte payload allocated %d bytes", h.name, len(h.payload), grew)
		}
	}
	// An out-of-range value is refused on the way out as well.
	bad := triple.Pattern{S: triple.Term{Kind: 7}}
	if _, err := EncodeFrame(TQuery, &Query{Pattern: &bad}); err == nil {
		t.Error("EncodeFrame accepted term kind 7")
	}
	if _, err := EncodeFrame(TQuery, &Trailer{}); err == nil {
		t.Error("EncodeFrame put a Trailer in a Query frame")
	}
}
