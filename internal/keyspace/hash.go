package keyspace

import (
	"crypto/sha1"
	"strings"
)

// OrderPreservingBits is the number of leading key bits that preserve the
// lexicographic order of the hashed string: 96 bits cover the first 12
// normalized bytes. Beyond that, keys carry a cryptographic tie-break
// suffix, so strings identical in their first 12 bytes still receive
// distinct (but arbitrarily ordered) keys.
const OrderPreservingBits = 96

// DefaultDepth is the bit depth of data keys produced by Hash: a 96-bit
// order-preserving prefix plus a 64-bit tie-break suffix.
const DefaultDepth = OrderPreservingBits + 64

// bitChars[c] spells byte c as key characters, most significant bit first.
var bitChars = func() (t [256][8]byte) {
	for c := range t {
		for i := range t[c] {
			t[c][i] = '0' + byte(c>>(7-i)&1)
		}
	}
	return t
}()

// Hash is GridVine's order-preserving hash function (paper §2.2): it maps a
// string onto a binary key such that the lexicographic order of inputs is
// preserved by the numeric order of outputs, which makes prefix/range
// queries over the overlay possible and produces the skewed key
// distributions P-Grid's unbalanced trie absorbs.
//
// The input is normalized (ASCII lower-cased) and its byte string is read
// as a base-256 fraction in [0,1); the fraction's binary expansion — i.e.
// the bytes' bits, zero-padded — forms the first min(depth,
// OrderPreservingBits) bits. Deeper bits come from a SHA-1 tie-break so
// long strings with a common 12-byte prefix still map to distinct keys;
// those bits are deterministic but not order-preserving.
func Hash(s string, depth int) Key {
	if depth <= 0 {
		depth = DefaultDepth
	}
	var b strings.Builder
	b.Grow(depth)
	prefixBits := min(depth, OrderPreservingBits)
	for i := 0; i < prefixBits; i += 8 {
		b.Write(bitChars[normalizedByte(s, i/8)][:min(8, prefixBits-i)])
	}
	if depth > OrderPreservingBits {
		sum := normalizedSum(s)
		writeBits(&b, sum[:], depth-OrderPreservingBits)
	}
	return Key{bits: b.String()}
}

// HashDefault applies Hash at DefaultDepth.
func HashDefault(s string) Key { return Hash(s, DefaultDepth) }

// CouldHashUnder reports whether Hash(s, depth) can lie under prefix, as far
// as the order-preserving bits decide: false means it cannot, at any depth;
// true means the first min(len(prefix), OrderPreservingBits) bits agree. It
// neither allocates nor runs SHA-1, so a walk can skip most strings before
// hashing them.
func CouldHashUnder(s, prefix string) bool {
	n := min(len(prefix), OrderPreservingBits)
	for i := 0; i < n; i += 8 {
		m := min(8, n-i)
		if string(bitChars[normalizedByte(s, i/8)][:m]) != prefix[i:i+m] {
			return false
		}
	}
	return true
}

// SameKey reports whether a and b are equal once normalized, which is when
// Hash gives them one key (a tie-break collision aside).
func SameKey(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if normalizedByte(a, i) != normalizedByte(b, i) {
			return false
		}
	}
	return true
}

// UniformHash is a non-order-preserving cryptographic hash onto the key
// space. It is used where uniform load spreading matters more than range
// queries (ablation experiments; schema-name keys are point lookups only).
func UniformHash(s string, depth int) Key {
	if depth <= 0 {
		depth = DefaultDepth
	}
	sum := sha1.Sum([]byte(s))
	var b strings.Builder
	b.Grow(depth)
	writeBits(&b, sum[:], depth)
	return Key{bits: b.String()}
}

// writeBits writes the first n bits of sum, cycling through it when n
// exceeds its length.
func writeBits(b *strings.Builder, sum []byte, n int) {
	for i := 0; i < n; i += 8 {
		b.Write(bitChars[sum[(i/8)%len(sum)]][:min(8, n-i)])
	}
}

// normalizedByte returns byte i of s with ASCII letters lower-cased, and 0
// past the end of s. Normalizing byte-wise preserves order on the
// normalized alphabet.
func normalizedByte(s string, i int) byte {
	if i >= len(s) {
		return 0
	}
	c := s[i]
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// normalizedSum is the SHA-1 of s with ASCII letters lower-cased. Strings up
// to a small length are lower-cased on the stack.
func normalizedSum(s string) [sha1.Size]byte {
	var buf [64]byte
	norm := buf[:0]
	if len(s) > len(buf) {
		norm = make([]byte, 0, len(s))
	}
	for i := 0; i < len(s); i++ {
		norm = append(norm, normalizedByte(s, i))
	}
	return sha1.Sum(norm)
}
