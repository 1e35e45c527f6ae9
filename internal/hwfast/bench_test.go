package hwfast

import (
	"testing"

	"repro/internal/nist"
)

// BenchmarkHWFastResidual measures the residual per-stream engines alone,
// one 64-bit word per op: the model runs in external mode on the
// n65536-high parameters, as each lane of a bit-sliced fleet group does,
// so the sliceable engines are skipped and only the template engines
// (tests 7, 8), the serial engine (tests 11, 12) or both do work. Each
// engine set has a per-word row (one ClockWord call per word) and a
// "-burst16" row feeding the same words 16 per ClockWords call, the
// bit-sliced lane feed; ns/op is per word in both. The shipped window
// shapes take the straight-line kernels; "both-generic" runs the same
// engines with the periodic template 010101010, a hand-built shape that
// takes the lane network and the countPatterns tree, so the generic
// path's cost sits beside the shipped rows of the same run.
func BenchmarkHWFastResidual(b *testing.B) {
	const n, burst = 65536, 16
	high := []int{1, 2, 3, 4, 7, 8, 11, 12, 13}
	for _, bc := range []struct {
		name  string
		tests []int
		tpl   uint32
	}{
		{"templates", []int{1, 2, 3, 4, 7, 8, 13}, 0b000000001},
		{"serial", []int{1, 2, 3, 4, 11, 12, 13}, 0b000000001},
		{"both", high, 0b000000001},
		{"both-generic", high, 0b010101010},
	} {
		newState := func(b *testing.B) (*State, []uint64) {
			p := nist.RecommendedParams(n)
			p.TemplateB = bc.tpl
			st, err := New(n, bc.tests, p)
			if err != nil {
				b.Fatal(err)
			}
			if st.shippedShapes() != (bc.tpl == 0b000000001) {
				b.Fatalf("%s: straight-line kernels %v", bc.name, st.shippedShapes())
			}
			st.SetExternal(true)
			return st, sequenceWords(n, 1)
		}
		b.Run(bc.name, func(b *testing.B) {
			st, words := newState(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st.Done() {
					st.Reset()
				}
				if err := st.ClockWord(words[i%len(words)], 64); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"-burst16", func(b *testing.B) {
			st, words := newState(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				if st.Done() {
					st.Reset()
				}
				// n/64 is a multiple of the burst, so a burst never
				// straddles the sequence end; only the last may be short.
				w := st.BitsSeen() / 64
				k := min(burst, b.N-i)
				if err := st.ClockWords(words[w : w+k]); err != nil {
					b.Fatal(err)
				}
				i += k
			}
		})
	}
}
