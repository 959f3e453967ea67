package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// tagged lists a zero value of every type with a tag, at its tag's index:
// the numbers are part of the layout, and pinned here.
func tagged() []any {
	return []any{
		0: nil,
		1: pgrid.ExecRequest{}, 2: pgrid.ExecResponse{}, 3: mediation.PatternQuery{}, 4: []triple.Triple(nil),
		5: mediation.ConnectivityQuery{}, 6: mediation.ConnectivityReport{},
		7: schema.Mapping{}, 8: schema.Schema{}, 9: triple.Triple{},
		10: pgrid.BatchEntry{}, 11: pgrid.BatchUpdate{}, 12: pgrid.BatchResult{}, 13: pgrid.BatchReplicate{},
		14: "", 15: 0, 16: false, 17: 0.0, 18: []any(nil),
		19: mediation.DomainDegree{}, 20: mediation.StatsDigest{},
		21: pgrid.SubtreeRequest{}, 22: pgrid.SubtreeResponse{},
		23: pgrid.DigestRequest{}, 24: pgrid.DigestResponse{}, 25: pgrid.RepairRequest{}, 26: pgrid.RepairResponse{},
	}
}

// The tags the hostile payloads spell.
const (
	tagExecRequest    = 1
	tagBatchUpdate    = 11
	tagString         = 14
	tagList           = 18
	tagStatsDigest    = 20
	tagDigestResponse = 24
)

// enums are the types the layout gives one byte and a range; fill keeps
// them at 1, which every one of them admits.
var enums = map[reflect.Type]bool{
	reflect.TypeOf(triple.TermKind(0)):    true,
	reflect.TypeOf(schema.MappingType(0)): true,
	reflect.TypeOf(schema.Origin(0)):      true,
	reflect.TypeOf(pgrid.Op(0)):           true,
}

// fill sets every field of v, at every depth, to a non-zero value that
// differs from its neighbours': a field a walk forgets, or swaps with
// another of its type, comes back different. An any holds a filled triple
// or a string, alternately; a time has seconds and nanoseconds.
func fill(t testing.TB, v reflect.Value, n *int64) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(1_700_000_000+*n, *n)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%v has unexported field %s: the codec cannot carry it", v.Type(), v.Type().Field(i).Name)
			}
			fill(t, v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Interface:
		var inner reflect.Value
		if *n%2 == 0 {
			inner = reflect.New(reflect.TypeOf(triple.Triple{})).Elem()
		} else {
			inner = reflect.New(reflect.TypeOf("")).Elem()
		}
		fill(t, inner, n)
		v.Set(inner)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), n)
		fill(t, v.Index(1), n)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, n)
			fill(t, e, n)
			v.SetMapIndex(k, e)
		}
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Uint8:
		v.SetUint(uint64(*n) % 251)
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

// filled returns a value of zero's type with every field set.
func filled(t testing.TB, zero any) any {
	v := reflect.New(reflect.TypeOf(zero)).Elem()
	var n int64
	fill(t, v, &n)
	return v.Interface()
}

// roundTrip sends payload through a frame and returns the frame and what
// it decoded to.
func roundTrip(t *testing.T, payload any) ([]byte, any) {
	t.Helper()
	want := Envelope{From: "from", Msg: simnet.Message{Payload: payload}, Err: "err"}
	frame, err := EncodeOverlay(&want)
	if err != nil {
		t.Fatalf("encode %T: %v", payload, err)
	}
	typ, body, n, err := ParseFrame(frame, FrameOverlay)
	if err != nil || typ != FrameOverlay || n != len(frame) {
		t.Fatalf("ParseFrame(%T) = type %d, %d of %d bytes, %v", payload, typ, n, len(frame), err)
	}
	got, err := DecodeOverlay(body)
	if err != nil {
		t.Fatalf("decode %T: %v", payload, err)
	}
	if got.From != want.From || got.Err != want.Err {
		t.Fatalf("%T envelope came back %+v", payload, got)
	}
	again, err := EncodeOverlay(&got)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("%T re-encodes differently (%v):\n got %x\nfrom %x", payload, err, again, frame)
	}
	return frame, got.Msg.Payload
}

// TestOverlayRoundTripsEveryField is the guard against a field added to an
// overlay message or a stored value and forgotten in overlay.go: with
// every field at every depth non-zero and distinct, what is not carried
// comes back zero and fails DeepEqual. Every tag has a case here, and the
// zero value of every type round-trips too (empty slices and maps are nil
// on both sides).
func TestOverlayRoundTripsEveryField(t *testing.T) {
	all := tagged()
	if len(all) != len(kinds) {
		t.Fatalf("%d tagged types listed for %d tags", len(all), len(kinds))
	}
	for tag, zero := range all {
		frame, got := roundTrip(t, zero)
		// Payload: from "from" (5 bytes), then the any's tag.
		if frame[FrameHeader+5] != byte(tag) {
			t.Errorf("%T encodes under tag %d, listed at %d", zero, frame[FrameHeader+5], tag)
		}
		if !reflect.DeepEqual(got, zero) {
			t.Errorf("zero %T came back %#v", zero, got)
		}
		if zero == nil {
			continue
		}
		want := filled(t, zero)
		if _, got := roundTrip(t, want); !reflect.DeepEqual(got, want) {
			t.Errorf("%T came back different:\n got %+v\nwant %+v", want, got, want)
		}
	}
}

// TestDigestLengthIgnoresTheClock: a statistics digest's frame is as long
// whenever it was published, so counting frame bytes does not read the
// clock; the zero time stays apart from the epoch.
func TestDigestLengthIgnoresTheClock(t *testing.T) {
	lengths := map[int][]time.Time{}
	for _, at := range []time.Time{
		time.Unix(40_000_000, 0), time.Unix(1_700_000_000, 5), time.Now(), time.Unix(4_000_000_000, 999_999_999),
	} {
		frame, _ := roundTrip(t, mediation.StatsDigest{Origin: "p", Schema: "EMBL", Published: at})
		lengths[len(frame)] = append(lengths[len(frame)], at)
	}
	if len(lengths) != 1 {
		t.Errorf("digest frame lengths by publication time: %v", lengths)
	}
	for _, at := range []time.Time{{}, time.Unix(0, 0)} {
		_, got := roundTrip(t, mediation.StatsDigest{Published: at})
		if back := got.(mediation.StatsDigest).Published; back.IsZero() != at.IsZero() || !back.Equal(at) {
			t.Errorf("published %v came back %v", at, back)
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current layout")

func goldenRows() []triple.Triple {
	return []triple.Triple{
		{Subject: "EMBL:A78712", Predicate: "EMBL#Organism", Object: "Aspergillus niger"},
		{Subject: "EMBL:A78767", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"},
	}
}

func goldenMapping() schema.Mapping {
	return schema.Mapping{
		ID: "EMBL->EMP#1", Source: "EMBL", Target: "EMP", Bidirectional: true,
		Correspondences: []schema.Correspondence{{SourceAttr: "Organism", TargetAttr: "SystematicName", Confidence: 0.9}},
		Origin:          schema.Automatic, Confidence: 0.75,
	}
}

// goldenFrames are the four exchanges the serving path is made of.
var goldenFrames = []struct {
	name string
	env  Envelope
}{
	{"request-exec-pattern", Envelope{From: "p3", Msg: simnet.Message{Payload: pgrid.ExecRequest{
		Key: "0110", Op: pgrid.OpQuery, Payload: mediation.PatternQuery{
			Patterns: []triple.Pattern{{S: triple.Var("x"), P: triple.Const("EMBL#Organism"), O: triple.LikeTerm("%Aspergillus%")}},
			Filters:  []mediation.VarFilter{{Var: "x", Values: []string{"EMBL:A78712"}}},
		}}}}},
	{"response-exec-rows", Envelope{Msg: simnet.Message{Payload: pgrid.ExecResponse{
		Responsible: true, AppResult: goldenRows(), Path: "011"}}}},
	{"response-exec-mappings", Envelope{Msg: simnet.Message{Payload: pgrid.ExecResponse{
		Responsible: true, Values: []any{goldenMapping(), schema.Schema{Name: "EMBL", Domain: "bio", Attributes: []string{"Organism"}}}, Path: "10"}}}},
	{"request-batch-update", Envelope{From: "p0", Msg: simnet.Message{Payload: pgrid.BatchUpdate{Entries: []pgrid.BatchEntry{
		{Key: "0101", Op: pgrid.OpInsert, Value: goldenRows()[0]},
		{Key: "0111", Op: pgrid.OpDelete, Value: goldenRows()[1]},
		{Key: "1000", Op: pgrid.OpInsert, Value: mediation.DomainDegree{Schema: "EMBL", InDegree: 1, OutDegree: 2}},
	}}}}},
}

// TestOverlayGoldenFrames compares four frames — header, checksum and
// payload — with the ones committed under testdata/golden. A failure means
// the bytes between peers changed: daemons from the two sides of that
// change do not interoperate, so rerun with -update-golden only when that
// is intended.
func TestOverlayGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		frame, err := EncodeOverlay(&g.env)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		name := filepath.Join("testdata", "golden", g.name+".hex")
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
			t.Errorf("%s frame changed:\n got %x\nwant %x", g.name, frame, want)
		}
		// The committed bytes, not only today's encoder output, decode.
		_, payload, err := ReadFrame(bytes.NewReader(want), FrameOverlay)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, err := DecodeOverlay(payload); err != nil || !reflect.DeepEqual(got, g.env) {
			t.Errorf("%s decodes to %+v, %v", name, got, err)
		}
	}
}

// eachString calls visit with every string reachable from v.
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

// inFrame counts the non-empty strings of payload's decoding that point
// into the frame buffer, and those that do not.
func inFrame(t *testing.T, payload any) (inside, outside int) {
	t.Helper()
	frame, err := EncodeOverlay(&Envelope{Msg: simnet.Message{Payload: payload}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := DecodeOverlay(frame[FrameHeader:])
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	eachString(reflect.ValueOf(env.Msg.Payload), func(s string) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && lo <= p && p < lo+uintptr(len(frame)) {
			inside++
		} else if len(s) > 0 {
			outside++
		}
	})
	runtime.KeepAlive(frame)
	return inside, outside
}

// TestStoredValuesOwnTheirBytes pins the ownership rule: what a receiver
// stores — the entries of a mutation, the head entry a probe carries, the
// items and tombstones of a repair — holds no pointer into the
// frame it arrived in, so storing it does not pin the frame (a batch's
// 96-byte keys, its neighbours' values). An answer is read and dropped, and
// its strings stay substrings of the frame: no copy per row.
func TestStoredValuesOwnTheirBytes(t *testing.T) {
	entries := filled(t, []pgrid.BatchEntry(nil)).([]pgrid.BatchEntry)
	entries[0].Value = goldenMapping()
	entries[1].Value = []any{"nested", goldenRows()[0]}
	items := []pgrid.SubtreeItem{{Key: "0101", Value: goldenRows()[0]}, {Key: "0110", Value: "plain"}}
	tombs := []pgrid.Tombstone{{Key: "0111", Value: goldenRows()[1]}}
	for name, stored := range map[string]any{
		"BatchUpdate":    pgrid.BatchUpdate{Entries: entries},
		"BatchReplicate": pgrid.BatchReplicate{Entries: entries},
		"probe head":     pgrid.ExecRequest{Op: pgrid.OpProbe, Payload: entries[0]},
		"RepairResponse": pgrid.RepairResponse{Missing: items, Tombs: tombs},
	} {
		if inside, outside := inFrame(t, stored); inside != 0 || outside == 0 {
			t.Errorf("%s: %d of %d decoded strings point into the frame, want none", name, inside, inside+outside)
		}
	}
	answer := pgrid.ExecResponse{Responsible: true, AppResult: goldenRows(), Values: []any{goldenMapping()}, Path: "01"}
	if inside, outside := inFrame(t, answer); inside == 0 || outside != 0 {
		t.Errorf("ExecResponse: %d strings in the frame, %d copied out; an answer's strings are substrings", inside, outside)
	}
}

// uv spells a payload from uvarints (ints) and literal bytes (strings).
func uv(parts ...any) []byte {
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

// hostilePayloads are payloads (sender "", then an any) the decoder must
// refuse. The first three are the allocation attacks.
var hostilePayloads = []struct {
	name    string
	payload []byte
}{
	{"2^40 batch entries", uv(0, tagBatchUpdate, 1<<40)},
	{"2^40 list elements", uv(0, tagList, 1<<40)},
	{"string past the end", uv(0, tagString, 200, "short")},
	{"lists nested past the depth bound", append(append([]byte{0}, bytes.Repeat([]byte{tagList, 1}, maxDepth+1)...), 0, 0)},
	{"tag 27, one past the table", uv(0, 27, 0)},
	{"op 6", uv(0, tagExecRequest, 0, 6, 0, 0)},
	{"map keys out of order", append(uv(0, tagDigestResponse, 2, 1, "b", "12345678", 1, "a", "12345678", 0), 0)},
	{"map key twice", append(uv(0, tagDigestResponse, 2, 1, "a", "12345678", 1, "a", "12345678", 0), 0)},
	{"publication time past the end", uv(0, tagStatsDigest, 0, 0, "\xff\xff")},
	{"truncated sketch", uv(0, tagStatsDigest, 0, 0, 0, 1, 0, 0, 0, 0, 1, "short", 0)},
	{"trailing byte", uv(0, 0, 0, 0)},
	{"no error text", uv(0, 0)},
	{"empty", nil},
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// growth over runs calls of f under GOMAXPROCS(1), after one warm-up call.
// One call's reading also counts whatever another goroutine allocated
// meanwhile; spread over many runs, that noise falls below any bound.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestOverlayRefusesHostilePayloads pins what the decoder rejects, and that
// a refused count costs nothing: the claim is checked against the bytes
// left before anything is allocated for it.
func TestOverlayRefusesHostilePayloads(t *testing.T) {
	for _, h := range hostilePayloads {
		if _, err := DecodeOverlay(h.payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: DecodeOverlay = %v; want ErrBadFrame", h.name, err)
		}
		if grew := allocBytesPerRun(100, func() { DecodeOverlay(h.payload) }); grew > 4096 {
			t.Errorf("%s: refusing a %d-byte payload allocated %d bytes", h.name, len(h.payload), grew)
		}
	}
	// On the way out: a type without a tag, a value nested past the bound
	// (a cycle is one), an out-of-range enum.
	var cycle []any
	cycle = append(cycle, nil)
	cycle[0] = cycle
	for name, payload := range map[string]any{
		"untagged type": struct{ X int }{1},
		"cyclic list":   cycle,
		"op 9":          pgrid.ExecRequest{Op: 9},
	} {
		if _, err := EncodeOverlay(&Envelope{Msg: simnet.Message{Payload: payload}}); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: EncodeOverlay = %v, want an error", name, err)
		}
	}
}
