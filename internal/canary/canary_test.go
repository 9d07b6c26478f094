package canary

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"exterminator/internal/xrand"
)

func TestLowBitAlwaysSet(t *testing.T) {
	rng := xrand.New(1)
	for i := 0; i < 1000; i++ {
		if c := New(rng); uint32(c)&1 == 0 {
			t.Fatalf("canary %08x has clear low bit", uint32(c))
		}
	}
}

func TestCanariesDifferAcrossSeeds(t *testing.T) {
	a := New(xrand.New(1))
	b := New(xrand.New(2))
	if a == b {
		t.Fatal("canaries identical across seeds")
	}
}

func TestFillVerifyRoundTrip(t *testing.T) {
	c := New(xrand.New(3))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 16, 255, 256} {
		buf := make([]byte, n)
		c.Fill(buf)
		if !c.Verify(buf) {
			t.Fatalf("fresh fill of %d bytes fails verify", n)
		}
	}
}

func TestVerifyDetectsAnySingleByteFlip(t *testing.T) {
	c := New(xrand.New(4))
	buf := make([]byte, 64)
	c.Fill(buf)
	for i := range buf {
		orig := buf[i]
		buf[i] ^= 0xff
		if c.Verify(buf) {
			t.Fatalf("flip at %d undetected", i)
		}
		buf[i] = orig
	}
}

func TestCorruptRangesLocatesOverflowString(t *testing.T) {
	c := New(xrand.New(5))
	buf := make([]byte, 64)
	c.Fill(buf)
	overflow := []byte("OVERFLOW")
	copy(buf[10:], overflow)
	rs := c.CorruptRanges(buf)
	if len(rs) == 0 {
		t.Fatal("no corruption found")
	}
	// The detected range must cover the overflow string (bytes of the
	// string that happen to equal the canary pattern may split it).
	if rs[0].Start < 10 || rs[len(rs)-1].End > 10+len(overflow) {
		t.Fatalf("ranges %v outside [10,18)", rs)
	}
	total := 0
	for _, r := range rs {
		total += r.Len()
		if !bytes.Equal(r.Bytes, buf[r.Start:r.End]) {
			t.Fatal("range bytes do not match buffer")
		}
	}
	if total < len(overflow)-2 { // allow ≤2 accidental pattern matches
		t.Fatalf("only %d corrupted bytes found", total)
	}
}

func TestCorruptRangesIntactIsNil(t *testing.T) {
	c := New(xrand.New(6))
	buf := make([]byte, 32)
	c.Fill(buf)
	if rs := c.CorruptRanges(buf); rs != nil {
		t.Fatalf("intact buffer reported ranges %v", rs)
	}
}

func TestCorruptRangesMultipleSegments(t *testing.T) {
	c := New(xrand.New(7))
	buf := make([]byte, 64)
	c.Fill(buf)
	buf[5] ^= 0x55
	buf[40] ^= 0x55
	rs := c.CorruptRanges(buf)
	if len(rs) != 2 {
		t.Fatalf("got %d ranges, want 2: %v", len(rs), rs)
	}
	if rs[0].Start != 5 || rs[0].End != 6 || rs[1].Start != 40 {
		t.Fatalf("ranges %v", rs)
	}
}

func TestByteMatchesFillAtAllPhases(t *testing.T) {
	c := Canary(0x11223345)
	buf := make([]byte, 9)
	c.Fill(buf)
	for i, b := range buf {
		if c.Byte(i) != b {
			t.Fatalf("Byte(%d) = %02x, fill = %02x", i, c.Byte(i), b)
		}
	}
	if buf[0] != 0x45 || buf[1] != 0x33 || buf[4] != 0x45 {
		t.Fatalf("little-endian repetition wrong: % x", buf)
	}
}

func TestWord64(t *testing.T) {
	c := Canary(0xdeadbeef)
	if c.Word64() != 0xdeadbeefdeadbeef {
		t.Fatalf("Word64 = %x", c.Word64())
	}
	// Low bit of the word equals the canary's low bit: the alignment trap.
	c2 := New(xrand.New(8))
	if c2.Word64()&1 != 1 {
		t.Fatal("Word64 low bit clear")
	}
}

func TestPropertyVerifyIffUncorrupted(t *testing.T) {
	c := New(xrand.New(9))
	if err := quick.Check(func(n uint8, flip uint8, doFlip bool) bool {
		size := int(n%128) + 1
		buf := make([]byte, size)
		c.Fill(buf)
		if !doFlip {
			return c.Verify(buf)
		}
		i := int(flip) % size
		buf[i] ^= 0x01
		return !c.Verify(buf) && len(c.CorruptRanges(buf)) == 1
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The byte-at-a-time definitions of the canary operations: the reference
// the word-wise implementations must match exactly.

func refFill(c Canary, buf []byte) {
	for i := range buf {
		buf[i] = c.Byte(i)
	}
}

func refVerify(c Canary, buf []byte) bool {
	for i, b := range buf {
		if b != c.Byte(i) {
			return false
		}
	}
	return true
}

func refCorruptRanges(c Canary, buf []byte) []Range {
	var out []Range
	i := 0
	for i < len(buf) {
		if buf[i] == c.Byte(i) {
			i++
			continue
		}
		j := i + 1
		for j < len(buf) && buf[j] != c.Byte(j) {
			j++
		}
		out = append(out, Range{Start: i, End: j, Bytes: append([]byte(nil), buf[i:j]...)})
		i = j
	}
	return out
}

// checkAgainstRef fails t unless Verify and CorruptRanges agree exactly
// with the byte-wise reference on buf.
func checkAgainstRef(t *testing.T, c Canary, buf []byte) {
	t.Helper()
	if got, want := c.Verify(buf), refVerify(c, buf); got != want {
		t.Fatalf("canary %08x, % x: Verify = %v, reference %v", uint32(c), buf, got, want)
	}
	if got, want := c.CorruptRanges(buf), refCorruptRanges(c, buf); !reflect.DeepEqual(got, want) {
		t.Fatalf("canary %08x, % x: CorruptRanges = %v, reference %v", uint32(c), buf, got, want)
	}
}

func TestWordwiseMatchesBytewiseReference(t *testing.T) {
	rng := xrand.New(10)
	for trial := 0; trial < 40; trial++ {
		c := New(rng)
		for n := 0; n <= 300; n++ {
			got, want := make([]byte, n), make([]byte, n)
			c.Fill(got)
			refFill(c, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("canary %08x, len %d: Fill = % x, reference % x", uint32(c), n, got, want)
			}
			checkAgainstRef(t, c, got)
			if n == 0 {
				continue
			}
			// Corrupt at a word boundary, in the tail past the last
			// whole word, and at several random places at once.
			var offs []int
			if b := (rng.Intn(n) &^ 7); b > 0 {
				offs = append(offs, b-1, b)
			}
			if tail := n &^ 7; tail < n {
				offs = append(offs, tail+rng.Intn(n-tail))
			}
			for k := rng.Intn(4); k > 0; k-- {
				offs = append(offs, rng.Intn(n))
			}
			buf := append([]byte(nil), got...)
			for _, off := range offs {
				buf[off] ^= byte(1 + rng.Intn(255))
			}
			checkAgainstRef(t, c, buf)
			// A run of bytes spanning words, some of which may happen to
			// equal the pattern.
			start := rng.Intn(n)
			for i := start; i < n && i < start+1+rng.Intn(20); i++ {
				buf[i] = byte(rng.Intn(256))
			}
			checkAgainstRef(t, c, buf)
		}
	}
}

func FuzzCanaryCorruptRanges(f *testing.F) {
	f.Add(uint32(0x11223345), []byte{})
	f.Add(uint32(0xdeadbeef), []byte{0xef, 0xbe, 0xad, 0xde, 0xef, 0xbe, 0xad, 0xde, 0x00})
	f.Add(uint32(0x01010101), bytes.Repeat([]byte{1}, 17))
	f.Fuzz(func(t *testing.T, v uint32, buf []byte) {
		c := Canary(v | 1)
		checkAgainstRef(t, c, buf)
		// The same bytes written over part of a fresh fill, at an offset
		// that is not word-aligned, with intact canary on both sides.
		filled := make([]byte, len(buf)+19)
		c.Fill(filled)
		copy(filled[3:], buf)
		checkAgainstRef(t, c, filled)
	})
}

func BenchmarkFill256(b *testing.B) {
	c := New(xrand.New(1))
	buf := make([]byte, 256)
	for i := 0; i < b.N; i++ {
		c.Fill(buf)
	}
}

func BenchmarkVerify256(b *testing.B) {
	c := New(xrand.New(1))
	buf := make([]byte, 256)
	c.Fill(buf)
	for i := 0; i < b.N; i++ {
		c.Verify(buf)
	}
}
