package triple

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	// hllPrecision fixes the register count (2^8 = 256) and with it the
	// sketch's standard error, ≈ 1.04/√256 ≈ 6.5% — plenty for planner
	// cardinality estimates, at 256 bytes per sketch on the wire.
	hllPrecision = 8
	hllRegisters = 1 << hllPrecision
)

// HLL is a HyperLogLog distinct-value sketch (Flajolet et al., AofA 2007).
// Unlike the exact per-peer distinct counts, sketches are mergeable: the
// register-wise maximum of two sketches is the sketch of the union, so
// aggregating many peers' digests of overlapping extensions — replicas and
// the 3-way index store every triple on several peers — estimates the true
// distinct cardinality instead of summing each copy.
//
// The zero value is an empty sketch. Fields are exported so the overlay
// codec's walk can reach them; treat them as opaque.
type HLL struct {
	Registers [hllRegisters]byte
}

// Add observes one value.
func (h *HLL) Add(v string) {
	x := fmix64(fnv64a(v))
	idx := x >> (64 - hllPrecision)
	// Rank of the first set bit in the remaining 56 bits; the |1 caps the
	// rank when they are all zero.
	rho := byte(bits.LeadingZeros64(x<<hllPrecision|1) + 1)
	if rho > h.Registers[idx] {
		h.Registers[idx] = rho
	}
}

// Merge folds o into h register-wise — union semantics. A nil o is empty.
func (h *HLL) Merge(o *HLL) {
	if o == nil {
		return
	}
	for i, r := range o.Registers {
		if r > h.Registers[i] {
			h.Registers[i] = r
		}
	}
}

// Estimate returns the estimated distinct-value count: the standard
// bias-corrected harmonic mean, with the linear-counting correction in the
// small range where empty registers carry more signal.
func (h *HLL) Estimate() int {
	const m = float64(hllRegisters)
	sum := 0.0
	zeros := 0
	for _, r := range h.Registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return int(est + 0.5)
}

// Clone returns an independent copy; nil clones to nil.
func (h *HLL) Clone() *HLL {
	if h == nil {
		return nil
	}
	out := *h
	return &out
}

// GoString spells a sketch by its registers. pgrid digests a stored value
// by its %#v, which prints a pointer field inside it as an address: a
// stats digest would then digest differently in every process and on
// every replica.
func (h *HLL) GoString() string {
	if h == nil {
		return "(*triple.HLL)(nil)"
	}
	return fmt.Sprintf("&triple.HLL{Registers:%x}", h.Registers)
}

// fmix64 is the MurmurHash3 finalizer. FNV-1a's high bits avalanche
// poorly on short strings — exactly the bits the register index and rank
// read — so the finalizer scrambles them before the sketch looks.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fnv64a is the 64-bit FNV-1a string hash, inlined to keep Add (on the
// stats scan's hot path) and ValueFilter's probes allocation-free.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
