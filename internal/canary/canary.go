// Package canary implements DieFast's random canaries (paper §3.3).
//
// Unlike traditional debugging allocators that use a fixed pattern such as
// 0xDEADBEEF, DieFast chooses a random 32-bit value at startup so that any
// fixed program data value collides with the canary with probability at
// most 1/2^31. The canary's last bit is always set: if a program reads a
// canary through a dangling pointer and dereferences it, the misaligned
// address traps immediately (see mem.Align).
//
// Canaries fill *freed* space. Combined with DieHard's headerless layout
// and E(M-1) freed objects between live ones, freed space acts as implicit
// fence-posts at zero space overhead.
//
// Every malloc checks one slot and every free up to two, so the check is
// the allocator's per-operation tax. The pattern is defined byte by byte
// (little-endian, repeating from the buffer start), but Fill, Verify and
// CorruptRanges work on 8-byte words: each aligned word of an intact fill
// equals Word64 read little-endian, so one comparison clears eight bytes
// and only a tail shorter than a word, or a word that differs, is examined
// byte by byte. The bytes written and every verdict are the same as a
// byte-at-a-time loop would give.
package canary

import (
	"encoding/binary"

	"exterminator/internal/xrand"
)

// Canary is the process-wide random 32-bit canary value.
type Canary uint32

// New draws a random canary with the low bit set.
func New(rng *xrand.RNG) Canary {
	return Canary(rng.Uint32() | 1)
}

// Byte returns the canary byte expected at offset off of a canary-filled
// buffer (the 4-byte little-endian pattern repeats from the buffer start).
func (c Canary) Byte(off int) byte {
	return byte(uint32(c) >> (8 * uint(off&3)))
}

// Fill overwrites buf with the repeating canary pattern.
func (c Canary) Fill(buf []byte) {
	w := c.Word64()
	n := len(buf) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w)
	}
	for i := n; i < len(buf); i++ {
		buf[i] = c.Byte(i)
	}
}

// Verify reports whether buf contains an intact canary fill.
func (c Canary) Verify(buf []byte) bool {
	w := c.Word64()
	n := len(buf) &^ 7
	for i := 0; i < n; i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != w {
			return false
		}
	}
	for i := n; i < len(buf); i++ {
		if buf[i] != c.Byte(i) {
			return false
		}
	}
	return true
}

// Range is a contiguous corrupted byte range [Start, End) within a
// canary-filled buffer, together with the bytes observed there. Ranges are
// the raw material of the error isolator: they locate overflow strings.
type Range struct {
	Start, End int
	Bytes      []byte
}

// Len returns the number of corrupted bytes.
func (r Range) Len() int { return r.End - r.Start }

// CorruptRanges returns the maximal contiguous ranges of buf that differ
// from the canary pattern, in ascending order. An intact buffer yields nil.
func (c Canary) CorruptRanges(buf []byte) []Range {
	w := c.Word64()
	var out []Range
	i := 0
	for i < len(buf) {
		if i&7 == 0 && i+8 <= len(buf) && binary.LittleEndian.Uint64(buf[i:]) == w {
			i += 8
			continue
		}
		if buf[i] == c.Byte(i) {
			i++
			continue
		}
		j := i + 1
		for j < len(buf) && buf[j] != c.Byte(j) {
			j++
		}
		seg := make([]byte, j-i)
		copy(seg, buf[i:j])
		out = append(out, Range{Start: i, End: j, Bytes: seg})
		i = j
	}
	return out
}

// Word64 returns the 64-bit value a load would observe from a
// canary-filled region at an 8-aligned offset: two repetitions of the
// 32-bit pattern. Fill, Verify and CorruptRanges compare against it, and
// tests use it to model dereferencing a canary.
func (c Canary) Word64() uint64 {
	return uint64(c)<<32 | uint64(c)
}
