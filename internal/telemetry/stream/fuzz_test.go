package stream

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzMaxValues caps the values one fuzz input decodes to.
const fuzzMaxValues = 256

// encodeSketchInput is FuzzSketch's input encoding: a split byte followed
// by each value's float64 bits, little-endian.
func encodeSketchInput(split byte, vals ...float64) []byte {
	b := []byte{split}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// sameSketch reports whether a and b hold bit-identical state.
func sameSketch(a, b *Sketch) bool {
	return a.count == b.count && a.zeros == b.zeros && a.buckets == b.buckets &&
		math.Float64bits(a.min) == math.Float64bits(b.min) &&
		math.Float64bits(a.max) == math.Float64bits(b.max)
}

// FuzzSketch observes arbitrary float64 bit patterns — NaN, infinities,
// signed zeros, subnormals and values far outside the bucket range
// included — into one sketch and into two halves split at the input's
// first byte, then checks the sketch's contracts: no panic, NaN alone is
// dropped, quantiles are nondecreasing in q and stay within [Min, Max],
// and merging the halves in either order reproduces the single sketch
// bit for bit.
func FuzzSketch(f *testing.F) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-9, 1024,
	}
	for i, v := range specials {
		f.Add(encodeSketchInput(byte(i), v, 1e-3, v, 0))
	}
	f.Add(encodeSketchInput(4, specials...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var vals []float64
		for b := data[1:]; len(b) >= 8 && len(vals) < fuzzMaxValues; b = b[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		split := int(data[0]) % (len(vals) + 1)
		var all, lo, hi Sketch
		var want uint64
		for i, v := range vals {
			all.Observe(v)
			if i < split {
				lo.Observe(v)
			} else {
				hi.Observe(v)
			}
			if !math.IsNaN(v) {
				want++
			}
		}
		if all.Count() != want {
			t.Fatalf("Count = %d, want %d non-NaN inputs", all.Count(), want)
		}
		prev := math.Inf(-1)
		for k := 1; k <= 64; k++ {
			q := float64(k) / 64
			v := all.Quantile(q)
			if v < prev {
				t.Fatalf("Quantile(%g) = %g < Quantile at lower q %g", q, v, prev)
			}
			if v < all.Min() || v > all.Max() {
				t.Fatalf("Quantile(%g) = %g outside [%g, %g]", q, v, all.Min(), all.Max())
			}
			prev = v
		}
		for _, pair := range [][2]*Sketch{{&lo, &hi}, {&hi, &lo}} {
			var m Sketch
			m.Merge(pair[0])
			m.Merge(pair[1])
			if !sameSketch(&m, &all) {
				t.Fatalf("merged halves (count %d zeros %d min %g max %g) differ from one sketch (count %d zeros %d min %g max %g)",
					m.count, m.zeros, m.min, m.max, all.count, all.zeros, all.min, all.max)
			}
		}
	})
}
