package hwfast

import (
	"testing"

	"repro/internal/nist"
)

// BenchmarkHWFastResidual measures the residual per-stream engines alone,
// one 64-bit word per op: the model runs in external mode on the
// n65536-high parameters, as each lane of a bit-sliced fleet group does,
// so the sliceable engines are skipped and only the template engines
// (tests 7, 8), the serial engine (tests 11, 12) or both do work.
func BenchmarkHWFastResidual(b *testing.B) {
	const n = 65536
	for _, bc := range []struct {
		name  string
		tests []int
	}{
		{"templates", []int{1, 2, 3, 4, 7, 8, 13}},
		{"serial", []int{1, 2, 3, 4, 11, 12, 13}},
		{"both", []int{1, 2, 3, 4, 7, 8, 11, 12, 13}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := New(n, bc.tests, nist.RecommendedParams(n))
			if err != nil {
				b.Fatal(err)
			}
			st.SetExternal(true)
			words := sequenceWords(n, 1)
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
	}
}
