// Package bitmap implements the receive-buffer reliability bitmap from
// §III-C of the paper.
//
// The bitmap is the only protocol state that grows with the receive buffer:
// one bit per MTU-sized chunk, indexed by the packet sequence number (PSN)
// carried in the CQE immediate data. The protocol uses it to (a) detect
// duplicate deliveries, (b) enumerate the missing chunks that the slow-path
// fetch layer must recover, and (c) decide completion.
//
// The implementation is word-addressed so that a DPA worker's "set bit"
// step is a single load-modify-store, matching the cost model used by the
// internal/dpa package.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap tracks received chunks. The zero value is an empty bitmap of zero
// length; construct sized bitmaps with New.
type Bitmap struct {
	words []uint64
	n     int // number of valid bits
	set   int // population count, maintained incrementally
}

// New returns a bitmap tracking n chunks, all initially unset.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative size")
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of tracked chunks.
func (b *Bitmap) Len() int { return b.n }

// Count returns the number of set bits.
func (b *Bitmap) Count() int { return b.set }

// Remaining returns the number of unset bits.
func (b *Bitmap) Remaining() int { return b.n - b.set }

// Full reports whether every bit is set.
func (b *Bitmap) Full() bool { return b.set == b.n }

// Set marks chunk i as received and reports whether the bit was newly set
// (false means a duplicate delivery). It panics on out-of-range PSNs:
// a PSN beyond the buffer length indicates memory corruption in a real
// implementation, and we want the simulation to fail loudly.
func (b *Bitmap) Set(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: PSN %d out of range [0,%d)", i, b.n))
	}
	w, m := i/wordBits, uint64(1)<<(i%wordBits)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.set++
	return true
}

// Get reports whether chunk i has been received.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: PSN %d out of range [0,%d)", i, b.n))
	}
	return b.words[i/wordBits]&(uint64(1)<<(i%wordBits)) != 0
}

// Reset resizes the bitmap to track n chunks, all unset. The backing
// storage is reused when it is large enough, matching the per-iteration
// reset a real progress engine performs between collectives.
func (b *Bitmap) Reset(n int) {
	w := (n + wordBits - 1) / wordBits
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		clear(b.words)
	}
	b.n, b.set = n, 0
}

// Missing appends the indices of all unset bits to dst and returns the
// extended slice. It scans word-at-a-time, skipping full words, which is
// how the recovery phase scans the bitmap cheaply after the cutoff timer
// fires (§III-C "Fetch layer").
func (b *Bitmap) Missing(dst []int) []int {
	for wi, w := range b.words {
		if w == ^uint64(0) {
			continue
		}
		base := wi * wordBits
		miss := ^w
		// Mask out bits beyond n in the last word.
		if base+wordBits > b.n {
			miss &= (uint64(1) << (b.n - base)) - 1
		}
		for miss != 0 {
			i := bits.TrailingZeros64(miss)
			dst = append(dst, base+i)
			miss &= miss - 1
		}
	}
	return dst
}

// MissingRanges appends [start, end) ranges of consecutive unset bits to
// dst. The fetch layer coalesces adjacent missing chunks into a single
// RDMA Read per range.
func (b *Bitmap) MissingRanges(dst [][2]int) [][2]int {
	start := -1
	for i := 0; i < b.n; i++ {
		if !b.Get(i) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = append(dst, [2]int{start, i})
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, [2]int{start, b.n})
	}
	return dst
}

// SizeBytes returns the storage footprint of the bitmap in bytes. Figure 7
// of the paper models this value against the DPA LLC capacity.
func (b *Bitmap) SizeBytes() int { return len(b.words) * 8 }

// String renders the bitmap compactly for debugging, e.g. "bitmap{5/8}".
func (b *Bitmap) String() string {
	return fmt.Sprintf("bitmap{%d/%d}", b.set, b.n)
}
