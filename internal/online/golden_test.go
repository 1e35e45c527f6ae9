package online

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/hwblock"
)

// splitmix64 is a self-contained generator for the golden corpus, so the
// pinned hashes depend on nothing outside this file.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// goldenTrajectory drives one tracker through a fixed corpus and hashes
// the float bits of its observable trajectory after every push: Score,
// Instant, the five ZScores and DetectedAt. The corpus mixes aligned
// 64-bit words with ragged 1–64-bit pushes, resets mid-stream (mid-chunk
// and mid-block), then ends in a strongly biased tail so the alarm
// latches.
func goldenTrajectory(t *testing.T, cfg hwblock.Config, window int) string {
	t.Helper()
	tr, err := New(cfg, Config{Window: window})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := int64(tr.Window())
	rng := splitmix64(uint64(cfg.N)*0x100000001 ^ uint64(w))
	h := sha256.New()
	var buf [8 * 8]byte
	var pos int64 // bits pushed since the last Reset
	push := func(total int64, biased bool) {
		for end := pos + total; pos < end; {
			nb := 64
			if rng.next()%4 == 0 {
				nb = 1 + int(rng.next()%64)
			} else if r := int(pos % 64); r != 0 {
				nb = 64 - r // realign to the chunk grid
			}
			if rem := end - pos; int64(nb) > rem {
				nb = int(rem)
			}
			v := rng.next()
			if biased {
				v |= rng.next() | rng.next() // P(one) = 7/8
			}
			tr.Push(v, nb)
			pos += int64(nb)
			z := tr.ZScores()
			for i, f := range []float64{tr.Score(), tr.Instant(), z.Freq, z.BlockFreq, z.Runs, z.LongestRun, z.Cusum, float64(tr.DetectedAt())} {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
			}
			h.Write(buf[:])
		}
	}
	push(w+w/2+37, false)
	tr.Reset()
	pos = 0
	push(2*w, false)
	push(6*w, true)
	if !tr.Alarmed() {
		t.Fatalf("biased tail did not latch the alarm (score %v)", tr.Score())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestTrajectoryGolden pins every design's score trajectory to recorded
// hashes. The fleet and replay suites compare the tracker against itself;
// this test is what catches a change to the tracker's own arithmetic. Each design
// runs at its default window (N) and at a shorter legal window of three
// block-frequency blocks (three chunks at n=128), so the chunk count is
// not a power of two.
func TestTrajectoryGolden(t *testing.T) {
	// Recorded on the monotonic-deque tracker; any rework of the window
	// mechanics must reproduce them bit for bit. Variants of one length
	// share a hash: every design runs the same five window statistics
	// with the same block lengths.
	want := map[string]string{
		"n128-light/w0":           "22e154d39b5f7a4f",
		"n128-light/w192":         "c034eb27ce971f27",
		"n128-medium/w0":          "22e154d39b5f7a4f",
		"n128-medium/w192":        "c034eb27ce971f27",
		"n65536-light/w0":         "e3783f3f0fe95b39",
		"n65536-light/w24576":     "d0cbd4d29a429f51",
		"n65536-medium/w0":        "e3783f3f0fe95b39",
		"n65536-medium/w24576":    "d0cbd4d29a429f51",
		"n65536-high/w0":          "e3783f3f0fe95b39",
		"n65536-high/w24576":      "d0cbd4d29a429f51",
		"n1048576-light/w0":       "826c8f2416231bdb",
		"n1048576-light/w196608":  "1a13a02bf2832e50",
		"n1048576-medium/w0":      "826c8f2416231bdb",
		"n1048576-medium/w196608": "1a13a02bf2832e50",
		"n1048576-high/w0":        "826c8f2416231bdb",
		"n1048576-high/w196608":   "1a13a02bf2832e50",
		"n128-lr-only/w0":         "8dcb3408283cbf6f",
		"n128-lr-only/w192":       "92b17de726f95238",
		"n128-walk-only/w0":       "90eb2b31e2730b36",
		"n128-walk-only/w192":     "67cf453d4f7d4117",
	}
	designs := hwblock.AllConfigs()
	// Two reduced custom designs reach the paths the paper's designs do
	// not: a longest run without block frequency (the only block length
	// is 8, below one chunk), and the walk statistics alone (no block
	// test, no runs).
	for _, c := range []struct {
		name  string
		tests []int
	}{{"n128-lr-only", []int{1, 3, 4, 13}}, {"n128-walk-only", []int{1, 13}}} {
		cfg, err := hwblock.NewCustomConfig(c.name, 128, c.tests)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, cfg)
	}
	for _, cfg := range designs {
		for _, window := range []int{0, 3 * max(64, cfg.Params.BlockFrequencyM)} {
			name := fmt.Sprintf("%s/w%d", cfg.Name, window)
			got := goldenTrajectory(t, cfg, window)
			if want[name] != got {
				t.Errorf("%s: trajectory hash %s, want %s", name, got, want[name])
			}
		}
	}
}
