package hwfast

import (
	"testing"

	"repro/internal/nist"
)

// serialSink keeps BenchmarkHWFastResidual's bank reads live.
var serialSink []uint64

// BenchmarkHWFastResidual measures the residual per-stream engines alone,
// one 64-bit word per op: the model runs in external mode on the
// n65536-high parameters, as each lane of a bit-sliced fleet group does,
// so the sliceable engines are skipped and only the template engines
// (tests 7, 8), the serial engine (tests 11, 12) or both do work. Each
// engine set has a per-word row (one ClockWord call per word) and a
// "-burst16" row feeding the same words 16 per ClockWords call, the
// bit-sliced lane feed; ns/op is per word in both, and both rows index
// the sequence by the model's own bit position. The n128-serial row is
// per sequence instead: a Reset, the two words of an n128-medium sequence
// in one ClockWords call and one SerialCounts read, so it shows the
// pattern banks' once-per-sequence rebuild, which a short sequence pays
// at every boundary.
func BenchmarkHWFastResidual(b *testing.B) {
	const n, burst = 65536, 16
	for _, bc := range []struct {
		name  string
		tests []int
	}{
		{"templates", []int{1, 2, 3, 4, 7, 8, 13}},
		{"serial", []int{1, 2, 3, 4, 11, 12, 13}},
		{"both", []int{1, 2, 3, 4, 7, 8, 11, 12, 13}},
	} {
		newState := func(b *testing.B) (*State, []uint64) {
			st, err := New(n, bc.tests, nist.RecommendedParams(n))
			if err != nil {
				b.Fatal(err)
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
				if err := st.ClockWord(words[st.BitsSeen()/64], 64); err != nil {
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
	b.Run("n128-serial", func(b *testing.B) {
		const n = 128
		st, err := New(n, []int{1, 2, 3, 4, 11, 12, 13}, nist.RecommendedParams(n))
		if err != nil {
			b.Fatal(err)
		}
		words := sequenceWords(n, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Reset()
			if err := st.ClockWords(words); err != nil {
				b.Fatal(err)
			}
			serialSink = st.SerialCounts(0)
		}
	})
}
