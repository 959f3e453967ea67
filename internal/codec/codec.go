// Package codec is the one binary layout gridvine puts on a socket: the
// checksummed frame, the primitives a payload is written in, the
// triple/schema walks, and (overlay.go) the messages peers exchange over
// tcpnet; internal/wire lays the client protocol out with the same
// primitives. A payload is its message's fields in struct order, nested
// structs inline, and nothing else — no names or type descriptors; the
// primitives below say how each kind of field is spelled, DESIGN.md §8
// tabulates them and every message.
//
// The decoder refuses, as ErrBadFrame: a count or length the remaining
// bytes cannot hold (checked before anything is allocated for it), a
// varint not in shortest form or past 64 bits, an out-of-range bool or
// enum byte, a payload that ends early, and bytes after the message. So
// decoding is canonical: a payload that decodes re-encodes to itself.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
	"unsafe"

	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

const (
	// FrameHeader is 1 byte type + 4 bytes payload length + 4 bytes
	// CRC32C, all little-endian.
	FrameHeader = 9
	// MaxPayload bounds a claimed payload length so a corrupt or
	// hostile header cannot demand an absurd allocation.
	MaxPayload = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame wraps every decoding failure caused by frame content
// (bad type, oversized length, checksum mismatch, a payload that is not
// its type's layout) as opposed to a short read.
var ErrBadFrame = errors.New("codec: bad frame")

// ErrShortFrame reports that data ends mid-frame: not an error on a
// live stream (more bytes may arrive), fatal at end of input.
var ErrShortFrame = errors.New("codec: truncated frame")

// Codec walks a message's fields in struct order. Encoding, it appends each
// to out; decoding, it reads each from in. One walk per message type serves
// both directions, so writer and reader cannot disagree on the layout.
//
// Decoding is sticky: the first failure is kept in err, every later read
// yields zero, and nothing is allocated for a count the remaining bytes
// cannot hold. Decoded strings are substrings of in, except while own is
// set: then each is its own copy (see Owned).
type Codec struct {
	encoding bool
	own      bool
	depth    int // nesting of any values, see any
	out      []byte
	in       string
	off      int
	err      error
}

// Encoder returns a codec that appends to a buffer of the given capacity,
// the frame header reserved at its front.
func Encoder(capacity int) Codec {
	return Codec{encoding: true, out: make([]byte, FrameHeader, capacity)}
}

// Decoder returns a codec that reads payload. What it decodes points into
// payload, which the caller must not write again.
func Decoder(payload []byte) Codec {
	return Codec{in: unsafe.String(unsafe.SliceData(payload), len(payload))}
}

// Frame seals what the encoder walked as a frame of type t.
func (c *Codec) Frame(t byte) ([]byte, error) {
	payload := c.out[FrameHeader:]
	if c.err == nil && len(payload) > MaxPayload {
		c.err = fmt.Errorf("payload of %d bytes exceeds %d", len(payload), MaxPayload)
	}
	if c.err != nil {
		return nil, c.err
	}
	c.out[0] = t
	binary.LittleEndian.PutUint32(c.out[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(c.out[5:9], crc32.Checksum(payload, crcTable))
	return c.out, nil
}

// Finish reports the decoder's first failure, bytes left after the message
// being one.
func (c *Codec) Finish() error {
	if c.err == nil && c.off != len(c.in) {
		c.fail(fmt.Sprintf("%d bytes after the message", len(c.in)-c.off))
	}
	return c.err
}

// fail records what as the walk's failure, unless one is recorded already.
func (c *Codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrBadFrame, what)
	}
	c.off = len(c.in)
}

// Grow makes room for n more encoded bytes; a frame that far outgrows the
// initial buffer sizes it once.
func (c *Codec) Grow(n int) {
	if c.encoding {
		c.out = slices.Grow(c.out, n)
	}
}

// readUvarint accepts only the shortest encoding of a value, so a payload
// that decodes has exactly one spelling.
func (c *Codec) readUvarint() uint64 {
	var v uint64
	for shift := uint(0); c.off < len(c.in); shift += 7 {
		b := c.in[c.off]
		c.off++
		if b < 0x80 {
			if (b == 0 && shift > 0) || (shift == 63 && b > 1) {
				c.fail("varint not in shortest form")
				return 0
			}
			return v | uint64(b)<<shift
		}
		if shift == 63 {
			c.fail("varint overflows 64 bits")
			return 0
		}
		v |= uint64(b&0x7f) << shift
	}
	c.fail("payload ends inside a value")
	return 0
}

func (c *Codec) Uint(v *uint64) {
	if c.encoding {
		c.out = binary.AppendUvarint(c.out, *v)
	} else {
		*v = c.readUvarint()
	}
}

func (c *Codec) Int64(v *int64) {
	if c.encoding {
		c.out = binary.AppendVarint(c.out, *v)
	} else {
		u := c.readUvarint()
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

// Int, Bool and Float write through v only when decoding: an encoded value
// may be shared by goroutines encoding it at once (one mapping's
// correspondences, journaled by two replicas).
func (c *Codec) Int(v *int) {
	x := int64(*v)
	c.Int64(&x)
	if c.encoding {
		return
	}
	if *v = int(x); int64(*v) != x {
		c.fail("integer out of range")
	}
}

// Enum is one byte holding a value in 0..max.
func (c *Codec) Enum(v *int, max int) {
	switch {
	case c.encoding && (*v < 0 || *v > max):
		c.fail(fmt.Sprintf("value %d outside 0..%d", *v, max))
	case c.encoding:
		c.out = append(c.out, byte(*v))
	case c.off >= len(c.in):
		*v = 0
		c.fail("payload ends inside a value")
	default:
		*v = int(c.in[c.off])
		if c.off++; *v > max {
			c.fail(fmt.Sprintf("byte %d outside 0..%d", *v, max))
			*v = 0
		}
	}
}

func (c *Codec) Bool(v *bool) {
	b := 0
	if *v {
		b = 1
	}
	c.Enum(&b, 1)
	if !c.encoding {
		*v = b == 1
	}
}

// fixed64 is eight little-endian bytes.
func (c *Codec) fixed64(v *uint64) {
	if c.encoding {
		c.out = binary.LittleEndian.AppendUint64(c.out, *v)
	} else if *v = 0; len(c.in)-c.off < 8 {
		c.fail("payload ends inside a value")
	} else {
		*v = binary.LittleEndian.Uint64([]byte(c.in[c.off : c.off+8]))
		c.off += 8
	}
}

func (c *Codec) Float(v *float64) {
	bits := math.Float64bits(*v)
	c.fixed64(&bits)
	if !c.encoding {
		*v = math.Float64frombits(bits)
	}
}

// count writes or reads the length of a string or slice. A length read is
// checked against the bytes left — each element takes at least min of them
// — before anything is allocated for it.
func (c *Codec) count(n, min int) int {
	if c.encoding {
		c.out = binary.AppendUvarint(c.out, uint64(n))
		return n
	}
	u := c.readUvarint()
	if u > uint64(len(c.in)-c.off)/uint64(min) {
		c.fail("count runs past the end of the payload")
		return 0
	}
	return int(u)
}

func (c *Codec) Str(v *string) {
	n := c.count(len(*v), 1)
	if c.encoding {
		c.out = append(c.out, *v...)
	} else {
		if *v = c.in[c.off : c.off+n]; c.own {
			*v = strings.Clone(*v)
		}
		c.off += n
	}
}

// Owned runs walk with every string it decodes copied out of the payload:
// for what the receiver stores, so a stored string does not pin its frame.
func (c *Codec) Owned(walk func()) {
	was := c.own
	c.own = true
	walk()
	c.own = was
}

// List is a count followed by the elements; an empty slice decodes as nil.
func List[T any](c *Codec, v *[]T, min int, elem func(*T)) {
	n := c.count(len(*v), min)
	if !c.encoding && n > 0 {
		*v = make([]T, n)
	}
	for i := range *v {
		elem(&(*v)[i])
	}
}

// Ptr is a presence byte, then the value if it is 1.
func Ptr[T any](c *Codec, v **T, walk func(*T)) {
	has := *v != nil
	if c.Bool(&has); has {
		if !c.encoding {
			*v = new(T)
		}
		walk(*v)
	}
}

// Strs is List over strings, spelled out: the cells of every row come
// through here, and a direct loop needs no method value per list.
func (c *Codec) Strs(v *[]string) {
	n := c.count(len(*v), 1)
	if !c.encoding && n > 0 {
		*v = make([]string, n)
	}
	for i := range *v {
		c.Str(&(*v)[i])
	}
}

func (c *Codec) term(t *triple.Term) {
	c.Enum((*int)(&t.Kind), int(triple.Like))
	c.Str(&t.Value)
}

func (c *Codec) Pattern(p *triple.Pattern) {
	c.term(&p.S)
	c.term(&p.P)
	c.term(&p.O)
}

func (c *Codec) Triple(t *triple.Triple) {
	c.Str(&t.Subject)
	c.Str(&t.Predicate)
	c.Str(&t.Object)
}

func (c *Codec) Schema(s *schema.Schema) {
	c.Str(&s.Name)
	c.Str(&s.Domain)
	c.Strs(&s.Attributes)
}

func (c *Codec) correspondence(p *schema.Correspondence) {
	c.Str(&p.SourceAttr)
	c.Str(&p.TargetAttr)
	c.Float(&p.Confidence)
}

func (c *Codec) Mapping(m *schema.Mapping) {
	c.Str(&m.ID)
	c.Str(&m.Source)
	c.Str(&m.Target)
	c.Enum((*int)(&m.Type), int(schema.Subsumption))
	c.Bool(&m.Bidirectional)
	List(c, &m.Correspondences, 10, c.correspondence)
	c.Enum((*int)(&m.Origin), int(schema.Automatic))
	c.Float(&m.Confidence)
	c.Bool(&m.Deprecated)
}

// ParseFrame parses one frame from the front of data, returning the frame
// type (1..maxType), its raw payload (a sub-slice of data — no copy, no
// allocation), and the bytes consumed. A frame that cannot be complete yet
// yields ErrShortFrame; corrupt content yields ErrBadFrame.
func ParseFrame(data []byte, maxType byte) (t byte, payload []byte, n int, err error) {
	if len(data) < FrameHeader {
		return 0, nil, 0, ErrShortFrame
	}
	if n, err = parseHeader(data, maxType); err == nil && len(data) < FrameHeader+n {
		err = ErrShortFrame
	}
	if err == nil {
		payload = data[FrameHeader : FrameHeader+n]
		err = checkCRC(data, payload)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	return data[0], payload, FrameHeader + n, nil
}

// parseHeader checks a frame header's type and returns its length claim.
func parseHeader(hdr []byte, maxType byte) (int, error) {
	if hdr[0] == 0 || hdr[0] > maxType {
		return 0, fmt.Errorf("%w: unknown type %d", ErrBadFrame, hdr[0])
	}
	length := binary.LittleEndian.Uint32(hdr[1:5])
	if length > MaxPayload {
		return 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, length, MaxPayload)
	}
	return int(length), nil
}

func checkCRC(hdr, payload []byte) error {
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[5:9]) {
		return fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return nil
}

// ReadFrame reads one frame of a type in 1..maxType from r into a buffer
// of its own, which grows with the bytes actually read (capped chunks): a
// hostile length claim cannot force a large allocation up front.
func ReadFrame(r io.Reader, maxType byte) (byte, []byte, error) {
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrShortFrame
		}
		return 0, nil, err
	}
	n, err := parseHeader(hdr[:], maxType)
	if err != nil {
		return 0, nil, err
	}
	const chunk = 1 << 20
	payload := make([]byte, 0, min(n, chunk))
	for len(payload) < n {
		off := len(payload)
		payload = append(payload, make([]byte, min(n-off, chunk))...)
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				return 0, nil, ErrShortFrame
			}
			return 0, nil, err
		}
	}
	return hdr[0], payload, checkCRC(hdr[:], payload)
}
