package triple

import (
	"encoding/gob"
	"math"
)

// ValueFilter is a Bloom filter over string values — the compact value-set
// representation the conjunctive engine ships to remote peers for semi-join
// reduction when the exact bound-value set would be larger than the filter.
// Membership tests have no false negatives (every added value is reported
// present) and a tunable false-positive rate; semi-join correctness only
// needs the former, since the issuer-side hash join drops any false-positive
// rows after they are shipped back.
type ValueFilter struct {
	// Bits is the filter's bit array, packed into 64-bit words.
	Bits []uint64
	// Hashes is the number of probe positions per value.
	Hashes int
}

// NewValueFilter sizes an empty filter for the expected number of values at
// the target false-positive rate (clamped into (0,1); 0 selects 1%).
func NewValueFilter(expected int, fpRate float64) *ValueFilter {
	if expected < 1 {
		expected = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	bits := int(math.Ceil(-float64(expected) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if bits < 64 {
		bits = 64
	}
	k := int(math.Round(float64(bits) / float64(expected) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &ValueFilter{Bits: make([]uint64, (bits+63)/64), Hashes: k}
}

// NewValueFilterFromValues builds a filter holding every given value.
func NewValueFilterFromValues(values []string, fpRate float64) *ValueFilter {
	f := NewValueFilter(len(values), fpRate)
	for _, v := range values {
		f.Add(v)
	}
	return f
}

// probes derives the double-hashing pair (h1, h2) for a value: FNV-1a for
// h1, a splitmix64-style remix for h2, forced odd so successive probe
// positions cycle the whole (power-of-two-free) bit space.
func (f *ValueFilter) probes(value string) (uint64, uint64) {
	h1 := fnv64a(value)
	h2 := h1
	h2 ^= h2 >> 30
	h2 *= 0xbf58476d1ce4e5b9
	h2 ^= h2 >> 27
	h2 *= 0x94d049bb133111eb
	h2 ^= h2 >> 31
	return h1, h2 | 1
}

// Add inserts a value.
func (f *ValueFilter) Add(value string) {
	m := uint64(len(f.Bits)) * 64
	h1, h2 := f.probes(value)
	for i := 0; i < f.Hashes; i++ {
		bit := (h1 + uint64(i)*h2) % m
		f.Bits[bit/64] |= 1 << (bit % 64)
	}
}

// Contains reports whether the value may have been added: true for every
// added value, and spuriously true at the configured false-positive rate.
func (f *ValueFilter) Contains(value string) bool {
	m := uint64(len(f.Bits)) * 64
	h1, h2 := f.probes(value)
	for i := 0; i < f.Hashes; i++ {
		bit := (h1 + uint64(i)*h2) % m
		if f.Bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes is the wire footprint of the bit array — what a semi-join
// weighs against the exact value list when it picks a filter encoding.
func (f *ValueFilter) SizeBytes() int {
	return 8 * len(f.Bits)
}

func init() {
	gob.Register(&ValueFilter{})
}
