package online

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/hwfast"
	"repro/internal/trng"
)

// zooSources builds the defect-zoo corpus the differential suite runs
// over: one healthy source plus every defect class internal/trng models.
func zooSources(seed int64) map[string]trng.Source {
	ro := trng.NewRingOscillator(3.01, 0.08, seed+4)
	ro.Lock(0.005)
	return map[string]trng.Source{
		"ideal":     trng.NewIdeal(seed),
		"biased":    trng.NewBiased(0.58, seed+1),
		"markov":    trng.NewMarkov(0.72, seed+2),
		"stuck":     trng.NewStuckAt(1),
		"locked-ro": ro,
		"drift":     trng.NewDrift(0.5, 0.9, 1<<16, seed+5),
		"erratic":   trng.NewErratic(trng.NewIdeal(seed+6), 997),
		"burst":     trng.NewBurst(trng.NewIdeal(seed+7), trng.NewBiased(0.95, seed+8), 0.01, 256, seed+9),
		"switch":    trng.NewSwitchAt(trng.NewIdeal(seed+10), trng.NewStuckAt(0), 1<<14),
	}
}

// readBit draws one bit, treating transient faults as a retry exactly
// like the monitor's retry loop would.
func readBit(t *testing.T, src trng.Source) byte {
	t.Helper()
	for {
		b, err := src.ReadBit()
		if err == nil {
			return b
		}
	}
}

// feedBoth pushes the same nbits-bit word into the tracker and the
// fixed-window model.
func feedBoth(t *testing.T, tr *Tracker, st *hwfast.State, w uint64, nbits int) {
	t.Helper()
	tr.Push(w, nbits)
	if err := st.ClockWord(w, nbits); err != nil {
		t.Fatalf("ClockWord: %v", err)
	}
}

// checkBoundary compares every window statistic against the fixed-window
// register image at a sequence boundary.
func checkBoundary(t *testing.T, tag string, cfg hwblock.Config, tr *Tracker, st *hwfast.State) {
	t.Helper()
	final, mn, mx := st.Walk()
	wf, wmn, wmx := tr.WindowWalk()
	if wf != final || wmn != mn || wmx != mx {
		t.Fatalf("%s: walk: window (%d,%d,%d) != fixed (%d,%d,%d)", tag, wf, wmn, wmx, final, mn, mx)
	}
	ones := (final + int64(cfg.N)) / 2
	if tr.WindowOnes() != ones {
		t.Fatalf("%s: ones: window %d != fixed %d", tag, tr.WindowOnes(), ones)
	}
	if cfg.Has(3) && tr.WindowRuns() != int64(st.Runs()) {
		t.Fatalf("%s: runs: window %d != fixed %d", tag, tr.WindowRuns(), st.Runs())
	}
	if cfg.Has(2) {
		var d int64
		m := int64(cfg.Params.BlockFrequencyM)
		for _, eps := range st.BlockFreqBank() {
			dd := 2*int64(eps) - m
			d += dd * dd
		}
		if tr.BlockFreqD() != d {
			t.Fatalf("%s: block-freq: window d=%d != fixed d=%d", tag, tr.BlockFreqD(), d)
		}
	}
	if cfg.Has(4) {
		want := st.LongestRunClasses()
		got := tr.LongestRunClasses(nil)
		if len(got) != len(want) {
			t.Fatalf("%s: longest-run: class count %d != %d", tag, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: longest-run class %d: window %d != fixed %d", tag, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialAllVariants proves the streaming statistics land
// exactly on the fixed-window register image at every sequence boundary,
// for all eight design points and the whole defect zoo, under ragged
// word sizes that exercise chunk-seam and block-seam handling.
func TestDifferentialAllVariants(t *testing.T) {
	for _, cfg := range hwblock.AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			seqs := 3
			if cfg.N >= 1<<20 {
				if testing.Short() {
					t.Skip("short mode: skip 2^20-bit designs")
				}
				seqs = 2
			}
			for name, src := range zooSources(0x5eed ^ int64(cfg.N)) {
				tr, err := New(cfg, Config{})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				rng := rand.New(rand.NewSource(int64(cfg.N) + int64(len(name))))
				for s := 0; s < seqs; s++ {
					st, err := hwfast.New(cfg.N, cfg.Tests, cfg.Params)
					if err != nil {
						t.Fatalf("hwfast.New: %v", err)
					}
					fed := 0
					for fed < cfg.N {
						// Ragged word widths, biased toward full words so
						// the big designs stay fast.
						nb := 64
						if rng.Intn(4) == 0 {
							nb = 1 + rng.Intn(64)
						}
						if rem := cfg.N - fed; nb > rem {
							nb = rem
						}
						var w uint64
						for i := 0; i < nb; i++ {
							w |= uint64(readBit(t, src)) << uint(i)
						}
						feedBoth(t, tr, st, w, nb)
						fed += nb
					}
					checkBoundary(t, cfg.Name+"/"+name, cfg, tr, st)
				}
			}
		})
	}
}

// TestWindowSlides proves the statistics really are windowed: after a
// stuck-at tail longer than the window, the window statistics must equal
// those of a fresh fixed-window run over the tail alone, even though the
// tracker also saw the healthy prefix.
func TestWindowSlides(t *testing.T) {
	cfg, err := hwblock.NewConfig(128, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(cfg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy prefix, deliberately not window-aligned at the defect onset.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 128+40; i++ {
		tr.Push(uint64(rng.Int63())&1, 1)
	}
	// Stuck tail: push until the total is window-aligned again and the
	// window holds only stuck bits.
	tail := 2*128 + 24 // 40+24 = 64 realigns the chunk phase
	for i := 0; i < tail; i++ {
		tr.Push(1, 1)
	}
	st, err := hwfast.New(cfg.N, cfg.Tests, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i++ {
		if err := st.Clock(1); err != nil {
			t.Fatal(err)
		}
	}
	checkBoundary(t, "stuck-tail", cfg, tr, st)
}

// rescanWindow recomputes the window walk, ones and runs from the
// retained chunks by an O(window) bit-by-bit scan of the last k of them.
func rescanWindow(hist []uint64, k int) (final, mn, mx, ones, runs int64) {
	if len(hist) > k {
		hist = hist[len(hist)-k:]
	}
	var prev uint64
	for i, w := range hist {
		for b := 0; b < chunkBits; b++ {
			bit := w >> uint(b) & 1
			final += 2*int64(bit) - 1
			mn, mx = min(mn, final), max(mx, final)
			ones += int64(bit)
			if (i > 0 || b > 0) && bit != prev {
				runs++
			}
			prev = bit
		}
	}
	if len(hist) > 0 {
		runs++
	}
	return final, mn, mx, ones, runs
}

// TestWindowExtremaBruteForce checks the block-extremum window walk, and
// the window ones and runs, against a rescan of the retained bits at every
// chunk commit: before the window is primed, across block rollovers
// (every k chunks), and after a Reset in the middle of a block. The
// source drifts between ones-heavy, zeros-heavy and uniform phases so the
// window extrema keep entering and leaving at every block position. Each
// word is pushed whole or split in two ragged pushes, so every commit
// lands at the end of a Push.
func TestWindowExtremaBruteForce(t *testing.T) {
	light128, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	light65536, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		cfg           hwblock.Config
		window        int
		reset, chunks int // Reset after reset chunks, then commit chunks more
	}{
		{"n128-light/k1", light128, 64, 5, 40},
		{"n128-light/k3", light128, 192, 7, 40},
		{"n65536-light/k1024", light65536, 0, 1536 + 300, 3*1024 + 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := New(tc.cfg, Config{Window: tc.window})
			if err != nil {
				t.Fatal(err)
			}
			k := tr.Window() / chunkBits
			rng := rand.New(rand.NewSource(int64(k)))
			var hist []uint64
			mode := 0
			run := func(chunks int) {
				for c := 0; c < chunks; c++ {
					if rng.Intn(max(2, k/4)) == 0 {
						mode = rng.Intn(3)
					}
					w := rng.Uint64()
					switch mode {
					case 1:
						w |= rng.Uint64()
					case 2:
						w &= rng.Uint64()
					}
					if a := rng.Intn(128); a < 64 && a > 0 {
						tr.Push(w, a)
						tr.Push(w>>uint(a), 64-a)
					} else {
						tr.Push(w, 64)
					}
					hist = append(hist, w)
					final, mn, mx, ones, runs := rescanWindow(hist, k)
					gf, gmn, gmx := tr.WindowWalk()
					if gf != final || gmn != mn || gmx != mx {
						t.Fatalf("chunk %d: walk (%d,%d,%d), rescan (%d,%d,%d)", len(hist), gf, gmn, gmx, final, mn, mx)
					}
					if tr.WindowOnes() != ones || tr.WindowRuns() != runs {
						t.Fatalf("chunk %d: ones %d runs %d, rescan %d %d", len(hist), tr.WindowOnes(), tr.WindowRuns(), ones, runs)
					}
					if tr.Primed() != (len(hist) >= k) {
						t.Fatalf("chunk %d: primed %v with k=%d", len(hist), tr.Primed(), k)
					}
				}
			}
			if k > 1 && tc.reset%k == 0 {
				t.Fatalf("reset after %d chunks is not mid-block (k=%d)", tc.reset, k)
			}
			run(tc.reset)
			tr.Reset()
			hist = hist[:0]
			run(tc.chunks)
		})
	}
}

// TestTrackerResetReuse proves Reset returns the tracker to a state
// bit-identical to a freshly built one.
func TestTrackerResetReuse(t *testing.T) {
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(cfg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		a.Push(uint64(rng.Int63()), 64)
	}
	rng2 := rand.New(rand.NewSource(13))
	words := make([]uint64, 1000)
	for i := range words {
		words[i] = uint64(rng2.Int63())
	}
	// End the pre-Reset stream on the window the fresh stream primes on
	// (two 61-bit words and 6 bits of a third, from a chunk boundary), so
	// any state cached across commits would be stale but equal-valued at
	// the first post-Reset score: Reset must clear it anyway.
	a.Push(words[0], 61)
	a.Push(words[1], 61)
	a.Push(words[2], 6)
	a.Reset()
	for n, w := range words {
		a.Push(w, 61)
		b.Push(w, 61)
		za, zb := a.ZScores(), b.ZScores()
		for i, p := range [][2]float64{
			{a.Score(), b.Score()}, {a.Instant(), b.Instant()},
			{za.Freq, zb.Freq}, {za.BlockFreq, zb.BlockFreq}, {za.Runs, zb.Runs},
			{za.LongestRun, zb.LongestRun}, {za.Cusum, zb.Cusum},
		} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("push %d: reset tracker diverged on score %d: %v vs %v", n, i, p[0], p[1])
			}
		}
	}
	if a.WindowOnes() != b.WindowOnes() || a.WindowRuns() != b.WindowRuns() {
		t.Fatalf("reset tracker window counts diverged")
	}
	af, amn, amx := a.WindowWalk()
	bf, bmn, bmx := b.WindowWalk()
	if af != bf || amn != bmn || amx != bmx {
		t.Fatalf("reset tracker walk diverged")
	}
}

// TestDetectionLatches proves a healthy-then-defective stream latches the
// alarm after the defect onset and records a plausible detection bit,
// while a healthy stream at the same length does not alarm.
func TestDetectionLatches(t *testing.T) {
	cfg, err := hwblock.NewConfig(128, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	onset := int64(4 * 128)
	total := int64(64 * 128)

	run := func(src trng.Source) *Tracker {
		tr, err := New(cfg, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < total; i++ {
			tr.Push(uint64(readBit(t, src)), 1)
		}
		return tr
	}

	bad := run(trng.NewSwitchAt(trng.NewIdeal(21), trng.NewStuckAt(0), int(onset)))
	if !bad.Alarmed() {
		t.Fatalf("stuck-at defect not detected within %d bits (score %v)", total, bad.Score())
	}
	if at := bad.DetectedAt(); at <= onset || at > total {
		t.Fatalf("detection bit %d outside (%d, %d]", at, onset, total)
	}

	good := run(trng.NewIdeal(22))
	if good.Alarmed() {
		t.Fatalf("ideal source alarmed at bit %d (score %v)", good.DetectedAt(), good.Score())
	}
	if good.DetectedAt() != -1 {
		t.Fatalf("unalarmed tracker reports DetectedAt %d", good.DetectedAt())
	}
}

// TestDecayBoundaries pins the EWMA edge cases: no scoring before the
// window fills, a latch requires Confirm consecutive over-threshold
// commits, and the decay constant matches the configured half-life.
func TestDecayBoundaries(t *testing.T) {
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("no-score-before-primed", func(t *testing.T) {
		tr, err := New(cfg, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// One bit short of a full window: all-ones, wildly anomalous.
		for i := 0; i < 127; i++ {
			tr.Push(1, 1)
		}
		if tr.Primed() {
			t.Fatal("primed before a full window")
		}
		if tr.Score() != 0 || tr.Alarmed() {
			t.Fatalf("scored before primed: score %v alarmed %v", tr.Score(), tr.Alarmed())
		}
		if !math.IsNaN(tr.ZScores().Freq) {
			t.Fatal("z-scores populated before primed")
		}
		tr.Push(1, 1)
		if !tr.Primed() || tr.Score() == 0 {
			t.Fatal("window fill did not trigger scoring")
		}
	})

	t.Run("confirm-count", func(t *testing.T) {
		// Confirm=3 on a stuck stream: the alarm must latch exactly at
		// the third over-threshold commit, never the first.
		tr, err := New(cfg, Config{Confirm: 3, Threshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		commits := 0
		var crossed int
		for i := 0; i < 128*8; i += 64 {
			tr.Push(^uint64(0), 64)
			commits++
			if crossed == 0 && tr.Score() >= 2 {
				crossed = commits
			}
			if tr.Alarmed() {
				break
			}
		}
		if !tr.Alarmed() {
			t.Fatal("stuck stream never latched")
		}
		latchCommit := int(tr.DetectedAt() / 64)
		if latchCommit != crossed+2 {
			t.Fatalf("latched at commit %d, want %d (threshold first crossed at %d, confirm 3)",
				latchCommit, crossed+2, crossed)
		}
	})

	t.Run("half-life", func(t *testing.T) {
		tr, err := New(cfg, Config{HalfLifeBits: 256})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp2(-64.0 / 256.0)
		if tr.decay != want {
			t.Fatalf("decay %v, want %v", tr.decay, want)
		}
		// After exactly one half-life of further commits, a frozen
		// instantaneous anomaly's old mass has halved.
		tr2, err := New(cfg, Config{HalfLifeBits: 128})
		if err != nil {
			t.Fatal(err)
		}
		d := tr2.decay
		if got := d * d; math.Abs(got-0.5) > 1e-12 {
			t.Fatalf("two 64-bit commits decay to %v, want 0.5", got)
		}
	})
}

// TestConfigValidation pins the constructor's rejection surface.
func TestConfigValidation(t *testing.T) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Medium)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Window: 100},           // not a chunk multiple
		{Window: -64},           // negative
		{Window: 4096},          // not a multiple of BF M=8192
		{HalfLifeBits: 32},      // shorter than a chunk
		{Confirm: -1},           // negative confirm
		{Threshold: math.NaN()}, // NaN threshold
		{Threshold: -1},         // negative threshold
	}
	for i, c := range bad {
		if _, err := New(cfg, c); err == nil {
			t.Fatalf("config %d (%+v) unexpectedly accepted", i, c)
		}
	}
	// A window of several sequences is legal when block lengths divide it.
	tr, err := New(cfg, Config{Window: 3 * 65536})
	if err != nil {
		t.Fatalf("multi-sequence window rejected: %v", err)
	}
	if tr.Window() != 3*65536 {
		t.Fatalf("window %d", tr.Window())
	}
}

// BenchmarkTrackerPush measures the steady-state per-word cost of the
// full five-statistic tracker at the paper's middle design point.
func BenchmarkTrackerPush(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Medium)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := New(cfg, Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	words := make([]uint64, 4096)
	for i := range words {
		words[i] = rng.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Push(words[i&4095], 64)
	}
}

// BenchmarkTrackerPushFleet measures the per-word tracker cost in the
// shape the bit-sliced fleet feeds it: 64 primed n65536-light trackers,
// one per lane, each taking a 16-word burst in turn (lanes outside, tiles
// inside). Beside BenchmarkTrackerPush it adds the cache traffic of
// cycling through 64 trackers' window state. One op is one word.
func BenchmarkTrackerPushFleet(b *testing.B) {
	cfg, err := hwblock.NewConfig(65536, hwblock.Light)
	if err != nil {
		b.Fatal(err)
	}
	benchFleet(b, cfg)
}

// BenchmarkTrackerPushStats splits the fleet-shaped tracker cost by
// statistic: custom n65536 designs that add runs (test 3), block
// frequency (2) and longest run (4) in turn to the walk statistics
// (1, 13), so the difference between adjacent rows is one statistic's
// per-word price.
func BenchmarkTrackerPushStats(b *testing.B) {
	for _, d := range []struct {
		name  string
		tests []int
	}{
		{"tests=1,13", []int{1, 13}},
		{"tests=1,3,13", []int{1, 3, 13}},
		{"tests=1,2,3,13", []int{1, 2, 3, 13}},
		{"tests=1,2,3,4,13", []int{1, 2, 3, 4, 13}},
	} {
		cfg, err := hwblock.NewCustomConfig(d.name, 65536, d.tests)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.name, func(b *testing.B) { benchFleet(b, cfg) })
	}
}

// benchFleet runs the fleet-shaped push loop over 64 primed trackers of
// cfg, 16-word bursts per tracker in turn. One op is one word.
func benchFleet(b *testing.B, cfg hwblock.Config) {
	const lanes, burst = 64, 16
	rng := rand.New(rand.NewSource(1))
	words := make([]uint64, 4096)
	for i := range words {
		words[i] = rng.Uint64()
	}
	trs := make([]*Tracker, lanes)
	for l := range trs {
		var err error
		if trs[l], err = New(cfg, Config{}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < cfg.N/chunkBits; i++ {
			trs[l].Push(words[(i+l*61)&4095], 64)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += lanes * burst {
		for l, tr := range trs {
			off := i/lanes + l*61
			for j := 0; j < burst; j++ {
				tr.Push(words[(off+j)&4095], 64)
			}
		}
	}
}
