// Package keyspace implements the binary key space underlying the P-Grid
// overlay: fixed-alphabet binary keys, prefix algebra, and the
// order-preserving hash function used by GridVine to map triple components
// onto routable keys (paper §2.2).
//
// A Key is a sequence of bits. Peers are associated with key-space paths
// (short keys); data items are hashed to full-depth keys. A peer whose path
// is a prefix of a data key is responsible for that key.
package keyspace

import (
	"fmt"
	"strings"
)

// Key is an immutable sequence of bits in the binary key space.
// The zero value is the empty key (the root of the trie).
type Key struct {
	bits string // each byte is '0' or '1'
}

// ParseKey builds a Key from a string of '0' and '1' characters.
func ParseKey(s string) (Key, error) {
	// Eight bytes per step: '0' and '1' are 0x30 and 0x31, so a byte is a
	// bit exactly when it is 0x30 once its low bit is cleared. A word that
	// fails leaves i at its first byte, and the byte loop names the bad one.
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		if w&^0x0101010101010101 != 0x3030303030303030 {
			break
		}
	}
	for ; i < len(s); i++ {
		if s[i] != '0' && s[i] != '1' {
			return Key{}, fmt.Errorf("keyspace: invalid bit %q at position %d", s[i], i)
		}
	}
	return Key{bits: s}, nil
}

// MustParseKey is like ParseKey but panics on invalid input.
// It is intended for tests and constant initialization.
func MustParseKey(s string) Key {
	k, err := ParseKey(s)
	if err != nil {
		panic(err)
	}
	return k
}

// Len returns the number of bits in the key.
func (k Key) Len() int { return len(k.bits) }

// IsEmpty reports whether the key has no bits (the trie root).
func (k Key) IsEmpty() bool { return len(k.bits) == 0 }

// Bit returns the i-th bit (0-based). It panics if i is out of range.
func (k Key) Bit(i int) int {
	if k.bits[i] == '1' {
		return 1
	}
	return 0
}

// String returns the key as a string of '0' and '1'.
func (k Key) String() string { return k.bits }

// Append returns a new key with bit b (0 or 1) appended.
func (k Key) Append(b int) Key {
	if b == 0 {
		return Key{bits: k.bits + "0"}
	}
	return Key{bits: k.bits + "1"}
}

// Prefix returns the first n bits of the key. It panics if n > Len.
func (k Key) Prefix(n int) Key { return Key{bits: k.bits[:n]} }

// IsPrefixOf reports whether k is a prefix of other (equality counts).
func (k Key) IsPrefixOf(other Key) bool {
	return strings.HasPrefix(other.bits, k.bits)
}

// HasPrefix reports whether prefix is a prefix of k.
func (k Key) HasPrefix(prefix Key) bool {
	return strings.HasPrefix(k.bits, prefix.bits)
}

// Equal reports whether two keys are identical.
func (k Key) Equal(other Key) bool { return k.bits == other.bits }

// Compare orders keys lexicographically by bits, which for keys produced by
// the order-preserving hash matches the order of the hashed values.
// It returns -1, 0 or +1.
func (k Key) Compare(other Key) int { return strings.Compare(k.bits, other.bits) }

// CommonPrefixLen returns the number of leading bits shared by k and other.
func (k Key) CommonPrefixLen(other Key) int {
	n := len(k.bits)
	if len(other.bits) < n {
		n = len(other.bits)
	}
	for i := 0; i < n; i++ {
		if k.bits[i] != other.bits[i] {
			return i
		}
	}
	return n
}

// FlipBit returns a copy of k with bit i inverted. It panics if i is out of
// range. The result of flipping bit i of a peer path is the sibling subtree
// the peer keeps routing references for at level i.
func (k Key) FlipBit(i int) Key {
	b := []byte(k.bits)
	if b[i] == '0' {
		b[i] = '1'
	} else {
		b[i] = '0'
	}
	return Key{bits: string(b)}
}

// Parent returns k without its final bit. It panics on the empty key.
func (k Key) Parent() Key {
	if k.IsEmpty() {
		panic("keyspace: empty key has no parent")
	}
	return Key{bits: k.bits[:len(k.bits)-1]}
}
