package keyspace

import (
	"crypto/sha1"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseKey(t *testing.T) {
	k, err := ParseKey("0110")
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	if k.String() != "0110" {
		t.Errorf("got %q, want %q", k.String(), "0110")
	}
	if k.Len() != 4 {
		t.Errorf("Len = %d, want 4", k.Len())
	}
	if _, err := ParseKey("01x0"); err == nil {
		t.Error("ParseKey accepted invalid bit")
	}
}

// TestParseKeyMatchesByteRule puts every byte value at every position of
// keys of 0 to 17 bits and of a hashed key's 160, alone and before a second
// bad byte at the end, and requires ParseKey to decide as the byte-by-byte
// rule does and to name the same first bad byte.
func TestParseKeyMatchesByteRule(t *testing.T) {
	byByte := func(s string) error {
		for i := 0; i < len(s); i++ {
			if s[i] != '0' && s[i] != '1' {
				return fmt.Errorf("keyspace: invalid bit %q at position %d", s[i], i)
			}
		}
		return nil
	}
	check := func(s []byte) {
		want := byByte(string(s))
		k, err := ParseKey(string(s))
		if fmt.Sprint(err) != fmt.Sprint(want) || err == nil && k.String() != string(s) {
			t.Fatalf("ParseKey(%q) = %q, %v; the byte rule says %v", s, k.String(), err, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, DefaultDepth} {
		key := make([]byte, n)
		for i := range key {
			key[i] = "01"[rng.Intn(2)]
		}
		check(key)
		for pos := 0; pos < n; pos++ {
			for b := 0; b < 256; b++ {
				s := append([]byte(nil), key...)
				s[pos] = byte(b)
				check(s)
				if pos < n-1 {
					s[n-1] = 'x'
					check(s)
				}
			}
		}
	}
}

func TestParseKeyEmpty(t *testing.T) {
	k, err := ParseKey("")
	if err != nil {
		t.Fatalf("ParseKey(\"\"): %v", err)
	}
	if !k.IsEmpty() {
		t.Error("empty key not IsEmpty")
	}
}

func TestMustParseKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseKey did not panic on invalid input")
		}
	}()
	MustParseKey("2")
}

func TestKeyBits(t *testing.T) {
	k := MustParseKey("101")
	want := []int{1, 0, 1}
	for i, w := range want {
		if got := k.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
}

// KeyFromBits builds a Key from a bit slice (false=0, true=1).
func KeyFromBits(bits []bool) Key {
	var b strings.Builder
	b.Grow(len(bits))
	for _, bit := range bits {
		if bit {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return Key{bits: b.String()}
}

func TestKeyFromBits(t *testing.T) {
	k := KeyFromBits([]bool{true, false, true, true})
	if k.String() != "1011" {
		t.Errorf("KeyFromBits = %q, want 1011", k.String())
	}
}

func TestAppendAndPrefix(t *testing.T) {
	k := Key{}
	k = k.Append(1).Append(0).Append(1)
	if k.String() != "101" {
		t.Fatalf("Append chain = %q", k.String())
	}
	if p := k.Prefix(2); p.String() != "10" {
		t.Errorf("Prefix(2) = %q", p.String())
	}
	if p := k.Prefix(0); !p.IsEmpty() {
		t.Errorf("Prefix(0) = %q, want empty", p.String())
	}
}

func TestPrefixRelations(t *testing.T) {
	a := MustParseKey("10")
	b := MustParseKey("101")
	if !a.IsPrefixOf(b) {
		t.Error("10 should be prefix of 101")
	}
	if b.IsPrefixOf(a) {
		t.Error("101 should not be prefix of 10")
	}
	if !a.IsPrefixOf(a) {
		t.Error("key should be prefix of itself")
	}
	if !b.HasPrefix(a) {
		t.Error("101 should have prefix 10")
	}
	empty := Key{}
	if !empty.IsPrefixOf(b) {
		t.Error("empty key should be prefix of everything")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"1", "0", 0},
		{"101", "100", 2},
		{"101", "101", 3},
		{"101", "1011", 3},
		{"0000", "0001", 3},
	}
	for _, c := range cases {
		got := MustParseKey(c.a).CommonPrefixLen(MustParseKey(c.b))
		if got != c.want {
			t.Errorf("CommonPrefixLen(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFlipBitSiblingParent(t *testing.T) {
	k := MustParseKey("101")
	if f := k.FlipBit(1); f.String() != "111" {
		t.Errorf("FlipBit(1) = %q", f.String())
	}
	if p := k.Parent(); p.String() != "10" {
		t.Errorf("Parent = %q", p.String())
	}
}

func TestCompare(t *testing.T) {
	if MustParseKey("0").Compare(MustParseKey("1")) != -1 {
		t.Error("0 < 1 expected")
	}
	if MustParseKey("1").Compare(MustParseKey("1")) != 0 {
		t.Error("1 == 1 expected")
	}
	if MustParseKey("11").Compare(MustParseKey("10")) != 1 {
		t.Error("11 > 10 expected")
	}
}

func TestHashOrderPreserving(t *testing.T) {
	words := []string{"aardvark", "apple", "banana", "cherry", "grape", "zebra"}
	for i := 0; i < len(words)-1; i++ {
		a := HashDefault(words[i])
		b := HashDefault(words[i+1])
		if a.Compare(b) >= 0 {
			t.Errorf("Hash(%q)=%s not < Hash(%q)=%s", words[i], a, words[i+1], b)
		}
	}
}

func TestHashCaseInsensitive(t *testing.T) {
	if !HashDefault("Organism").Equal(HashDefault("organism")) {
		t.Error("Hash should be case-insensitive")
	}
}

func TestHashDepth(t *testing.T) {
	for _, d := range []int{1, 8, 16, 64, 96, 128} {
		if got := Hash("test", d).Len(); got != d {
			t.Errorf("Hash depth %d produced %d bits", d, got)
		}
	}
	if got := Hash("test", 0).Len(); got != DefaultDepth {
		t.Errorf("Hash depth 0 produced %d bits, want default %d", got, DefaultDepth)
	}
}

func TestHashDeterministic(t *testing.T) {
	if !Hash("EMBL#Organism", 64).Equal(Hash("EMBL#Organism", 64)) {
		t.Error("Hash not deterministic")
	}
}

func TestUniformHashDeterministicAndDistinct(t *testing.T) {
	a := UniformHash("schema-a", 64)
	b := UniformHash("schema-b", 64)
	if a.Equal(b) {
		t.Error("UniformHash collision on distinct inputs")
	}
	if !a.Equal(UniformHash("schema-a", 64)) {
		t.Error("UniformHash not deterministic")
	}
	if UniformHash("x", 32).Len() != 32 {
		t.Error("UniformHash wrong depth")
	}
}

// Property: the order-preserving hash is monotone with respect to
// lexicographic order of normalized inputs whenever they differ inside the
// order-preserving region (first OrderPreservingBits/8 bytes); identical
// inputs map to identical keys.
func TestHashMonotoneProperty(t *testing.T) {
	region := OrderPreservingBits / 8
	clip := func(s string) string {
		// Zero-pad to the region length, mirroring the fraction expansion.
		b := make([]byte, region)
		copy(b, s)
		return string(b)
	}
	f := func(a, b string) bool {
		na, nb := normalize(a), normalize(b)
		ka, kb := HashDefault(a), HashDefault(b)
		if na == nb {
			return ka.Equal(kb)
		}
		switch strings.Compare(clip(na), clip(nb)) {
		case -1:
			return ka.Compare(kb) <= 0
		case 1:
			return ka.Compare(kb) >= 0
		default:
			// Same order-preserving region: only the tie-break differs.
			return ka.Prefix(OrderPreservingBits).Equal(kb.Prefix(OrderPreservingBits))
		}
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Strings sharing a long common prefix must still receive distinct keys via
// the tie-break suffix (this is what keeps distinct URIs from colliding).
func TestHashTieBreakDistinctness(t *testing.T) {
	a := HashDefault("gridvine://peer-001/resource-a")
	b := HashDefault("gridvine://peer-001/resource-b")
	if a.Equal(b) {
		t.Error("long-common-prefix strings collided")
	}
	if !a.Prefix(OrderPreservingBits).Equal(b.Prefix(OrderPreservingBits)) {
		t.Error("order-preserving prefix should match for identical 12-byte prefixes")
	}
}

// Property: prefix relation is consistent with CommonPrefixLen.
func TestPrefixConsistencyProperty(t *testing.T) {
	f := func(raw []bool, n uint8) bool {
		k := KeyFromBits(raw)
		cut := int(n)
		if cut > k.Len() {
			cut = k.Len()
		}
		p := k.Prefix(cut)
		return p.IsPrefixOf(k) && p.CommonPrefixLen(k) == cut
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: FlipBit is an involution and changes exactly one bit.
func TestFlipBitProperty(t *testing.T) {
	f := func(raw []bool, idx uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := KeyFromBits(raw)
		i := int(idx) % k.Len()
		flipped := k.FlipBit(i)
		if flipped.Equal(k) {
			return false
		}
		if !flipped.FlipBit(i).Equal(k) {
			return false
		}
		diff := 0
		for j := 0; j < k.Len(); j++ {
			if k.Bit(j) != flipped.Bit(j) {
				diff++
			}
		}
		return diff == 1
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkHash(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hash("EMBL#Organism/Aspergillus-nidulans", DefaultDepth)
	}
}

// referenceHash is the bit-at-a-time Hash the table-driven one replaced,
// kept as its specification.
func referenceHash(s string, depth int) Key {
	if depth <= 0 {
		depth = DefaultDepth
	}
	norm := normalize(s)
	var b strings.Builder
	for i := 0; i < depth && i < OrderPreservingBits; i++ {
		var c byte
		if i/8 < len(norm) {
			c = norm[i/8]
		}
		b.WriteByte('0' + c>>uint(7-i%8)&1)
	}
	if depth > OrderPreservingBits {
		sum := sha1.Sum([]byte(norm))
		for i := 0; i < depth-OrderPreservingBits; i++ {
			b.WriteByte('0' + sum[(i/8)%len(sum)]>>uint(7-i%8)&1)
		}
	}
	return Key{bits: b.String()}
}

// TestHashMatchesReference checks Hash against the bit loop on random
// strings of every length class (short, around the 12-byte order-preserving
// prefix, past the stack buffer) and bytes (mixed case, NUL, high bytes), at
// depths that do and do not end on a byte boundary; that SameKey holds
// across case changes and not across a trailing NUL; and that
// CouldHashUnder never rules out a prefix of the string's own key.
func TestHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := "aAzZ09:#% \x00\xff"
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(80))
		for j := range b {
			if rng.Intn(4) == 0 {
				b[j] = byte(rng.Intn(256))
			} else {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		s := string(b)
		depth := []int{0, 1, 7, 64, 95, 96, 100, 160, 200}[i%9]
		got, want := Hash(s, depth), referenceHash(s, depth)
		if !got.Equal(want) {
			t.Fatalf("Hash(%q, %d) = %s, reference %s", s, depth, got, want)
		}
		if cut := rng.Intn(got.Len() + 1); !CouldHashUnder(s, got.String()[:cut]) {
			t.Fatalf("CouldHashUnder(%q, own key[:%d]) = false", s, cut)
		}
		flipped := []byte(s)
		for j, c := range flipped {
			if ('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') && rng.Intn(2) == 0 {
				flipped[j] ^= 'a' - 'A'
			}
		}
		if !SameKey(s, string(flipped)) || !HashDefault(string(flipped)).Equal(HashDefault(s)) || SameKey(s, s+"\x00") {
			t.Fatalf("SameKey(%q, %q) disagrees with Hash", s, flipped)
		}
		other := HashDefault(string(rune('a' + rng.Intn(26)))).String()
		if !strings.HasPrefix(HashDefault(s).String(), other[:OrderPreservingBits]) && CouldHashUnder(s, other) {
			t.Fatalf("CouldHashUnder(%q, %s) = true for a key it cannot reach", s, other)
		}
	}
}

// normalize lower-cases ASCII letters; other bytes pass through.
func normalize(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
