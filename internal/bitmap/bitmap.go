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
// length; Reset sizes it.
type Bitmap struct {
	words []uint64
	n     int // number of valid bits
	set   int // population count, maintained incrementally
}

// Len returns the number of tracked chunks.
func (b *Bitmap) Len() int { return b.n }

// Count returns the number of set bits.
func (b *Bitmap) Count() int { return b.set }

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

// MissingRanges appends [start, end) ranges of consecutive unset bits to
// dst. The fetch layer coalesces adjacent missing chunks into a single
// RDMA Read per range. The scan goes a word at a time, skipping full
// words while it looks for a gap and empty ones while it looks for the
// gap's end.
func (b *Bitmap) MissingRanges(dst [][2]int) [][2]int {
	for i := 0; i < b.n; {
		start := b.next(i, ^uint64(0))
		if start >= b.n {
			break
		}
		end := min(b.next(start, 0), b.n)
		dst = append(dst, [2]int{start, end})
		i = end
	}
	return dst
}

// next returns the first index at or after i < n whose bit is set (flip 0)
// or unset (flip all ones), or len(words)*wordBits when there is none. The
// bits past n in the last word are unset.
func (b *Bitmap) next(i int, flip uint64) int {
	w := i / wordBits
	word := (b.words[w] ^ flip) &^ (uint64(1)<<(i%wordBits) - 1)
	for word == 0 {
		if w++; w == len(b.words) {
			return w * wordBits
		}
		word = b.words[w] ^ flip
	}
	return w*wordBits + bits.TrailingZeros64(word)
}

// SizeBytes returns the storage footprint of the bitmap in bytes. Figure 7
// of the paper models this value against the DPA LLC capacity.
func (b *Bitmap) SizeBytes() int { return len(b.words) * 8 }

// String renders the bitmap compactly for debugging, e.g. "bitmap{5/8}".
func (b *Bitmap) String() string {
	return fmt.Sprintf("bitmap{%d/%d}", b.set, b.n)
}
