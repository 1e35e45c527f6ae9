package hwfast_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hwblock"
)

// windowOracle counts the serial test's 4-, 3- and 2-bit windows one
// stream position at a time, the way the hardware's pattern counters do:
// a window of width w ending at bit t counts once t ≥ w−1, with the oldest
// bit as the pattern's most significant, and closing the sequence adds the
// w−1 windows that wrap around its end, so every bank then holds the n
// cyclic windows.
type windowOracle struct {
	stream []byte // the whole sequence, one bit per byte
	seen   int
	nu     [3][]uint64 // widths 4, 3, 2
}

func newWindowOracle(stream []byte) *windowOracle {
	o := &windowOracle{stream: stream}
	for i := range o.nu {
		o.nu[i] = make([]uint64, 1<<(4-i))
	}
	return o
}

// count adds, for each width w, the window ending at bit t, reading the
// stream modulo its length n: windows end at bits w−1 … n+w−2, so each
// bank counts n of them in all.
func (o *windowOracle) count(t int) {
	n := len(o.stream)
	for i := range o.nu {
		w := 4 - i
		if t < w-1 || t > n+w-2 {
			continue
		}
		pat := 0
		for k := 0; k < w; k++ {
			pat |= int(o.stream[(t-k)%n]) << k
		}
		o.nu[i][pat]++
	}
}

// advance takes the stream's next k bits.
func (o *windowOracle) advance(k int) {
	for ; k > 0; k-- {
		o.count(o.seen)
		o.seen++
	}
	if n := len(o.stream); o.seen == n {
		for t := n; t < n+3; t++ {
			o.count(t)
		}
	}
}

// TestSerialCountsOracle checks SerialCounts(0..2) against windowOracle
// after every feed call, on the all-tests custom designs at n = 256 and
// 1024 under 1-bit, ragged and 64-bit feeds: the per-position count is
// independent of the lane-set counters, the shift corrections of a
// partial sequence (serialEdges) and the Möbius pass behind the banks.
// The 1-bit feed reads the banks at every bit count 0…n.
func TestSerialCountsOracle(t *testing.T) {
	feeds := []struct {
		name  string
		sizes []int
	}{
		{"1-bit", []int{1}},
		{"ragged", []int{3, 1, 2, 7, 64, 13, 1, 33, 5, 64, 64, 9}},
		{"64-bit", []int{64}},
	}
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{256, 1024} {
		cfg, err := hwblock.NewCustomConfig(fmt.Sprintf("oracle-n%d", n), n, []int{1, 2, 3, 4, 7, 8, 11, 12, 13})
		if err != nil {
			t.Fatal(err)
		}
		streams := map[string][]byte{"ones": make([]byte, n), "random": make([]byte, n), "sparse": make([]byte, n)}
		for i := 0; i < n; i++ {
			streams["ones"][i] = 1
			streams["random"][i] = byte(rng.Intn(2))
			if rng.Intn(6) == 0 {
				streams["sparse"][i] = 1
			}
		}
		for name, stream := range streams {
			for _, feed := range feeds {
				ctx := fmt.Sprintf("n=%d/%s/%s", n, name, feed.name)
				st := newModel(t, cfg)
				o := newWindowOracle(stream)
				check := func() {
					t.Helper()
					for i, want := range o.nu {
						if got := st.SerialCounts(i); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: after %d bits, width-%d bank %v, per-position count %v", ctx, o.seen, 4-i, got, want)
						}
					}
				}
				check()
				for fed, i := 0, 0; fed < n; i++ {
					k := min(feed.sizes[i%len(feed.sizes)], n-fed)
					var w uint64
					for j := 0; j < k; j++ {
						w |= uint64(stream[fed+j]) << j
					}
					if err := st.ClockWord(w, k); err != nil {
						t.Fatalf("%s: ClockWord(%d bits) at bit %d: %v", ctx, k, fed, err)
					}
					o.advance(k)
					fed += k
					check()
				}
				if !st.Done() {
					t.Fatalf("%s: not done after %d bits", ctx, n)
				}
			}
		}
	}
}
