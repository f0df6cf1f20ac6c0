package quantile

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzSketch drives the insert/merge path from raw bytes: the first
// byte picks how the value stream is split across two sketches, the
// rest decodes to float64 observations. Invariants checked: counts add
// up, answers are finite, bounded by the observed min/max, monotone in p
// and within the Sketch contract's bound of the exact nearest-rank value
// — for the merged sketch and for each operand.
func FuzzSketch(f *testing.F) {
	seed := func(split byte, vals ...float64) []byte {
		b := []byte{split}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0, 1, 2, 3))
	f.Add(seed(3, 5, 5, 5, 5, 5, 5))
	f.Add(seed(128, 0.1, -7, 1e12, 3, 3, -0.5, 42))
	ramp := make([]float64, 130)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	f.Add(seed(65, ramp...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		split := int(data[0])
		data = data[1:]
		var vals []float64
		for len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return
		}
		if split > len(vals) {
			split %= len(vals) + 1
		}
		a, b := NewSketch(), NewSketch()
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			if i < split {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		a.Merge(b)
		if a.Count() != int64(len(vals)) {
			t.Fatalf("merged count %d, want %d", a.Count(), len(vals))
		}
		if b.Count() != int64(len(vals)-split) {
			t.Fatalf("merge mutated operand: count %d, want %d", b.Count(), len(vals)-split)
		}
		for _, c := range []struct {
			s  *Sketch
			vs []float64
		}{{a, vals}, {b, vals[split:]}} {
			s := c.s
			if s.Count() == 0 {
				continue
			}
			sorted := slices.Clone(c.vs)
			slices.Sort(sorted)
			prev := math.Inf(-1)
			for p := 0.0; p <= 100; p += 2.5 {
				q := s.quantile(p)
				if math.IsNaN(q) || math.IsInf(q, 0) {
					t.Fatalf("non-finite quantile q(%v)=%v", p, q)
				}
				if q < lo || q > hi {
					t.Fatalf("q(%v)=%v outside observed range [%v, %v]", p, q, lo, hi)
				}
				if q < prev {
					t.Fatalf("quantiles not monotone: q(%v)=%v < %v", p, q, prev)
				}
				if err := checkContract(sorted, p, q); err != nil {
					t.Fatal(err)
				}
				prev = q
			}
		}
	})
}
