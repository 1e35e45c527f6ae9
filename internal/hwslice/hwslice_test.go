package hwslice_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hwblock"
	"repro/internal/hwfast"
	"repro/internal/hwsim"
	"repro/internal/hwslice"
	"repro/internal/nist"
)

// variants mirrors the eight Table III design points (hwblock.AllConfigs)
// without depending on hwblock's naming, then adds custom designs that
// cover the other block-length shapes: sub-tile blocks at n=64 and n=256,
// a sub-tile block-frequency length beside a tile-aligned longest-run one
// and the reverse, one-tile blocks beside 32-bit ones, sub-tile block
// frequency without longest run, and a light design past the standard
// megabit size. A zero p means nist.RecommendedParams(n).
var variants = []struct {
	name  string
	n     int
	tests []int
	p     nist.Params
}{
	{"n128-light", 128, []int{1, 2, 3, 4, 13}, nist.Params{}},
	{"n128-medium", 128, []int{1, 2, 3, 4, 11, 12, 13}, nist.Params{}},
	{"n65536-light", 65536, []int{1, 2, 3, 4, 13}, nist.Params{}},
	{"n65536-medium", 65536, []int{1, 2, 3, 4, 7, 13}, nist.Params{}},
	{"n65536-high", 65536, []int{1, 2, 3, 4, 7, 8, 11, 12, 13}, nist.Params{}},
	{"n1m-light", 1 << 20, []int{1, 2, 3, 4, 13}, nist.Params{}},
	{"n1m-medium", 1 << 20, []int{1, 2, 3, 4, 7, 13}, nist.Params{}},
	{"n1m-high", 1 << 20, []int{1, 2, 3, 4, 7, 8, 11, 12, 13}, nist.Params{}},
	{"n64-light", 64, []int{1, 2, 3, 4, 13}, nist.Params{}},
	{"n256-medium", 256, []int{1, 2, 3, 4, 11, 12, 13}, nist.Params{}},
	{"n512-bf32", 512, []int{1, 2, 3, 4, 13}, nist.Params{BlockFrequencyM: 32, LongestRunM: 128}},
	{"n1024-lr16", 1024, []int{1, 2, 3, 4, 13}, nist.Params{BlockFrequencyM: 256, LongestRunM: 16}},
	{"n256-bf64-lr32", 256, []int{1, 2, 3, 4, 13}, nist.Params{BlockFrequencyM: 64, LongestRunM: 32}},
	{"n128-no-lr", 128, []int{1, 2, 3, 13}, nist.Params{}},
	{"n2m-light", 1 << 21, []int{1, 2, 3, 4, 13}, nist.Params{}},
}

// params returns a variant's design parameters.
func params(n int, p nist.Params) nist.Params {
	if p == (nist.Params{}) {
		return nist.RecommendedParams(n)
	}
	return p
}

// newPair builds a lane group and 64 shadow hwfast models for one variant.
func newPair(t *testing.T, n int, tests []int, p nist.Params) (*hwslice.Group, [64]*hwfast.State) {
	t.Helper()
	g, err := hwslice.New(n, tests, p)
	if err != nil {
		t.Fatal(err)
	}
	var shadows [64]*hwfast.State
	for l := range shadows {
		st, err := hwfast.New(n, tests, p)
		if err != nil {
			t.Fatal(err)
		}
		shadows[l] = st
	}
	return g, shadows
}

// absorb feeds a burst of lane-major tiles to the group in one call and
// the same words, tile by tile, to the attached lanes' shadows.
func absorb(t *testing.T, g *hwslice.Group, shadows *[64]*hwfast.State, tiles [][64]uint64) {
	t.Helper()
	active := g.Active()
	for j := range tiles {
		for l := 0; l < 64; l++ {
			if active>>uint(l)&1 == 0 {
				continue
			}
			if err := shadows[l].ClockWord(tiles[j][l], 64); err != nil {
				t.Fatalf("shadow lane %d: %v", l, err)
			}
		}
	}
	if err := g.AbsorbTiles(tiles); err != nil {
		t.Fatalf("AbsorbTiles: %v", err)
	}
}

func compareLane(t *testing.T, g *hwslice.Group, sh *hwfast.State, lane int, ctx string) {
	t.Helper()
	var wsG, wsS hwfast.WordStats
	g.ExtractLane(lane, &wsG)
	sh.ExportWordStats(&wsS)
	if !reflect.DeepEqual(wsG, wsS) {
		t.Fatalf("%s lane %d: sliced state diverges from hwfast:\nslice: %+v\nfast:  %+v",
			ctx, lane, wsG, wsS)
	}
}

// TestGroupMatchesHWFastPerTile is the core differential proof: 64 random
// streams per variant, absorbed in bursts of 1, 2, 3, 5 and 16 tiles in
// turn, so both the pair-unrolled loop and the odd-tail loop run and
// bursts cross long block-frequency boundaries at varying phases.
// Extracted state is compared against per-lane internal hwfast ingest at
// every burst end (every lane for the small designs, sampled lanes plus
// periodic full sweeps for the megabit ones).
func TestGroupMatchesHWFastPerTile(t *testing.T) {
	bursts := []int{1, 2, 3, 5, 16}
	for _, tc := range variants {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.n > 65536 && testing.Short() {
				t.Skip("megabit variant skipped in -short")
			}
			p := params(tc.n, tc.p)
			g, shadows := newPair(t, tc.n, tc.tests, p)
			for l := 0; l < 64; l++ {
				if err := g.Attach(l); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(int64(tc.n) + int64(len(tc.tests))))
			tiles := tc.n / 64
			full := tc.n <= 65536
			bfTiles := p.BlockFrequencyM / 64
			buf := make([][64]uint64, 16)
			crossed := 0
			for k, b := 0, 0; k < tiles; b++ {
				burst := buf[:min(bursts[b%len(bursts)], tiles-k)]
				for j := range burst {
					for l := range burst[j] {
						burst[j][l] = rng.Uint64()
					}
				}
				absorb(t, g, &shadows, burst)
				k0 := k
				k += len(burst)
				if bfTiles > 1 && k0/bfTiles != (k-1)/bfTiles {
					crossed++ // a block-frequency block closed mid-burst
				}
				if full || k0/256 != k/256 || k == tiles {
					for l := 0; l < 64; l++ {
						compareLane(t, g, shadows[l], l, tc.name)
					}
				} else {
					compareLane(t, g, shadows[b%64], b%64, tc.name)
				}
			}
			if g.Off() != tc.n {
				t.Fatalf("group off = %d, want %d", g.Off(), tc.n)
			}
			if has(tc.tests, 2) && bfTiles > 1 && bfTiles < tiles && crossed == 0 {
				t.Fatal("no burst crossed a block-frequency boundary")
			}
		})
	}
}

// TestGroupSparseLanes runs groups that hold a few lanes, anywhere in the
// 64 columns, against hwfast: every non-megabit variant, bursts of 1, 2,
// 3, 5 and 16 tiles (pair loop, odd tail, sub-tile blocks and long-block
// boundaries), and random words in the unattached columns, which must
// never leak into an attached lane. Halfway through the first sequence
// the highest lane detaches, so the group runs on with fewer columns
// above its lowest lane; after Rollover that lane re-attaches beside one
// further up, and both must start the second sequence clean.
func TestGroupSparseLanes(t *testing.T) {
	bursts := []int{1, 2, 3, 5, 16}
	sets := []struct {
		name  string
		lanes []int
	}{
		{"0", []int{0}},
		{"37", []int{37}},
		{"62-63", []int{62, 63}},
		{"0-7", []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}
	for _, tc := range variants {
		if tc.n > 65536 {
			continue
		}
		for _, set := range sets {
			tc, set := tc, set
			t.Run(tc.name+"/lanes="+set.name, func(t *testing.T) {
				g, shadows := newPair(t, tc.n, tc.tests, params(tc.n, tc.p))
				for _, l := range set.lanes {
					if err := g.Attach(l); err != nil {
						t.Fatal(err)
					}
				}
				top := set.lanes[len(set.lanes)-1]
				rng := rand.New(rand.NewSource(int64(tc.n) ^ int64(top)))
				tiles := tc.n / 64
				buf := make([][64]uint64, 16)
				runSequence := func(seq int, mid func()) {
					for k, b := 0, 0; k < tiles; b++ {
						burst := buf[:min(bursts[b%len(bursts)], tiles-k)]
						for j := range burst {
							for l := range burst[j] {
								burst[j][l] = rng.Uint64()
							}
						}
						absorb(t, g, &shadows, burst)
						k += len(burst)
						for l := 0; l < 64; l++ {
							if g.Active()>>uint(l)&1 != 0 {
								compareLane(t, g, shadows[l], l, fmt.Sprintf("sequence %d tile %d", seq, k))
							}
						}
						if mid != nil && k >= tiles/2 && k < tiles {
							mid()
							mid = nil
						}
					}
					if mid != nil {
						mid() // a one-tile design has no mid-sequence boundary
					}
				}
				runSequence(0, func() { g.Detach(top) })
				if g.Active()>>uint(top)&1 != 0 {
					t.Fatalf("lane %d still attached after Detach", top)
				}

				g.Rollover()
				for l := range shadows {
					shadows[l].Reset()
				}
				if err := g.Attach(top); err != nil {
					t.Fatalf("reattach lane %d: %v", top, err)
				}
				if above := top + 8; above < 64 {
					if err := g.Attach(above); err != nil {
						t.Fatalf("attach lane %d: %v", above, err)
					}
				}
				runSequence(1, nil)
			})
		}
	}
}

// TestGroupStructuredPatterns sweeps run- and boundary-heavy inputs: every
// repeated byte value, single set bits, saturated and alternating words —
// the cases that stress the carry-save underflow paths and the longest-run
// block seams.
func TestGroupStructuredPatterns(t *testing.T) {
	patterns := make([]uint64, 0, 256+64+4)
	for b := 0; b < 256; b++ {
		w := uint64(b)
		w |= w << 8
		w |= w << 16
		w |= w << 32
		patterns = append(patterns, w)
	}
	for i := 0; i < 64; i++ {
		patterns = append(patterns, 1<<uint(i))
	}
	patterns = append(patterns, 0, ^uint64(0), 0xAAAAAAAAAAAAAAAA, 0x5555555555555555)

	for _, tc := range variants[:2] { // the n=128 designs: 2 tiles, exhaustive density
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for start := 0; start < len(patterns); start += 64 {
				g, shadows := newPair(t, tc.n, tc.tests, params(tc.n, tc.p))
				for l := 0; l < 64; l++ {
					if err := g.Attach(l); err != nil {
						t.Fatal(err)
					}
				}
				for k := 0; k < tc.n/64; k++ {
					var tile [1][64]uint64
					for l := range tile[0] {
						p := patterns[(start+l)%len(patterns)]
						if k%2 == 1 {
							p = ^p // flip alternate tiles to cross seams both ways
						}
						tile[0][l] = p
					}
					absorb(t, g, &shadows, tile[:])
					for l := 0; l < 64; l++ {
						compareLane(t, g, shadows[l], l, tc.name)
					}
				}
			}
		})
	}
}

// TestGroupLaneEviction detaches lanes mid-sequence and proves both sides
// of the contract: the evicted lane's extracted state matches its shadow at
// the detach point, and the surviving 63 lanes are undisturbed through the
// end of the sequence. A rollover then reattaches the evicted lanes and
// runs a second sequence to prove stale counter bits were cleared.
func TestGroupLaneEviction(t *testing.T) {
	tc := variants[4] // n65536-high
	if testing.Short() {
		tc = variants[1] // n128-medium
	}
	g, shadows := newPair(t, tc.n, tc.tests, params(tc.n, tc.p))
	for l := 0; l < 64; l++ {
		if err := g.Attach(l); err != nil {
			t.Fatal(err)
		}
	}
	tiles := tc.n / 64
	evictAt := map[int]int{ // lane -> tile boundary after which it leaves
		7:  0,
		11: 1,
		63: tiles / 2,
		0:  tiles - 1,
	}
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < tiles; k++ {
		var tile [1][64]uint64
		for l := range tile[0] {
			tile[0][l] = rng.Uint64()
		}
		absorb(t, g, &shadows, tile[:])
		for lane, at := range evictAt {
			if at != k {
				continue
			}
			compareLane(t, g, shadows[lane], lane, "pre-eviction")
			g.Detach(lane)
		}
	}
	for l := 0; l < 64; l++ {
		if _, evicted := evictAt[l]; evicted {
			continue
		}
		compareLane(t, g, shadows[l], l, "survivor")
	}
	if g.Lanes() != 64-len(evictAt) {
		t.Fatalf("Lanes() = %d, want %d", g.Lanes(), 64-len(evictAt))
	}

	// Second sequence: rollover, reattach, everything must start clean.
	g.Rollover()
	for lane := range evictAt {
		if err := g.Attach(lane); err != nil {
			t.Fatalf("reattach lane %d: %v", lane, err)
		}
	}
	for l := range shadows {
		shadows[l].Reset()
	}
	for k := 0; k < tiles; k++ {
		var tile [1][64]uint64
		for l := range tile[0] {
			tile[0][l] = rng.Uint64()
		}
		absorb(t, g, &shadows, tile[:])
	}
	for l := 0; l < 64; l++ {
		compareLane(t, g, shadows[l], l, "post-rollover")
	}
}

// TestGroupHandBackToHWFast is the end-to-end lazy-de-transposition proof
// at the model level: a stream whose sliceable engines ran in the lane
// group (residual engines live on its own external-mode hwfast) must
// finish with state identical to pure internal ingest — including the
// template and serial banks the group never touches.
func TestGroupHandBackToHWFast(t *testing.T) {
	for _, tc := range variants {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.n > 65536 && testing.Short() {
				t.Skip("megabit variant skipped in -short")
			}
			p := params(tc.n, tc.p)
			tiles := tc.n / 64
			for _, handoff := range []int{1, tiles / 2, tiles - 1} {
				if handoff < 1 || handoff >= tiles {
					continue
				}
				g, err := hwslice.New(tc.n, tc.tests, p)
				if err != nil {
					t.Fatal(err)
				}
				lane := 37
				if err := g.Attach(lane); err != nil {
					t.Fatal(err)
				}
				ref, err := hwfast.New(tc.n, tc.tests, p)
				if err != nil {
					t.Fatal(err)
				}
				ext, err := hwfast.New(tc.n, tc.tests, p)
				if err != nil {
					t.Fatal(err)
				}
				ext.SetExternal(true)
				rng := rand.New(rand.NewSource(int64(tc.n) ^ int64(handoff)))
				var ws hwfast.WordStats
				for k := 0; k < tiles; k++ {
					w := rng.Uint64()
					if err := ref.ClockWord(w, 64); err != nil {
						t.Fatal(err)
					}
					if k == handoff {
						g.ExtractLane(lane, &ws)
						if err := ext.LoadWordStats(&ws); err != nil {
							t.Fatalf("%s handoff %d: %v", tc.name, handoff, err)
						}
					}
					if err := ext.ClockWord(w, 64); err != nil {
						t.Fatal(err)
					}
					if k < handoff {
						var tile [1][64]uint64
						tile[0][lane] = w
						if err := g.AbsorbTiles(tile[:]); err != nil {
							t.Fatal(err)
						}
					}
				}
				var wsRef, wsExt hwfast.WordStats
				ref.ExportWordStats(&wsRef)
				ext.ExportWordStats(&wsExt)
				if !reflect.DeepEqual(wsRef, wsExt) {
					t.Fatalf("%s handoff %d: final state diverges:\nref: %+v\next: %+v",
						tc.name, handoff, wsRef, wsExt)
				}
				if has(tc.tests, 11) || has(tc.tests, 12) {
					for i := 0; i < 3; i++ {
						if !reflect.DeepEqual(ref.SerialCounts(i), ext.SerialCounts(i)) {
							t.Fatalf("%s handoff %d: serial bank %d diverges", tc.name, handoff, i)
						}
					}
				}
				if has(tc.tests, 7) && !reflect.DeepEqual(ref.NonOverlapBank(), ext.NonOverlapBank()) {
					t.Fatalf("%s handoff %d: non-overlapping bank diverges", tc.name, handoff)
				}
				if has(tc.tests, 8) && !reflect.DeepEqual(ref.OverlapClasses(), ext.OverlapClasses()) {
					t.Fatalf("%s handoff %d: overlapping classes diverge", tc.name, handoff)
				}
			}
		})
	}
}

func has(tests []int, id int) bool {
	for _, t := range tests {
		if t == id {
			return true
		}
	}
	return false
}

func TestGroupValidation(t *testing.T) {
	for _, cfg := range hwblock.AllConfigs() {
		if _, err := hwslice.New(cfg.N, cfg.Tests, cfg.Params); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	p := nist.RecommendedParams(128)
	if _, err := hwslice.New(100, []int{1}, p); err == nil {
		t.Fatal("accepted n not a multiple of 64")
	}
	if _, err := hwslice.New(0, []int{1}, p); err == nil {
		t.Fatal("accepted n = 0")
	}
	if _, err := hwslice.New(1<<31, []int{1}, p); err == nil {
		t.Fatal("accepted n = 2^31, past the 32-bit counter budget")
	}
	p48 := p
	p48.BlockFrequencyM = 48
	if _, err := hwslice.New(192, []int{1, 2, 3, 4, 13}, p48); err == nil {
		t.Fatal("accepted a block-frequency length that neither divides nor is a multiple of 64")
	}
	g, err := hwslice.New(128, []int{1, 2, 3, 4, 13}, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(64); err == nil {
		t.Fatal("accepted lane 64")
	}
	if err := g.Attach(-1); err == nil {
		t.Fatal("accepted lane -1")
	}
	if err := g.Attach(5); err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(5); err == nil {
		t.Fatal("accepted duplicate lane")
	}
	var tile [1][64]uint64
	if err := g.AbsorbTiles(tile[:]); err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(6); err == nil {
		t.Fatal("accepted mid-sequence attach")
	}
	if err := g.AbsorbTiles(tile[:]); err != nil {
		t.Fatal(err)
	}
	if err := g.AbsorbTiles(tile[:]); err == nil {
		t.Fatal("accepted tile past sequence end")
	}
	g.Reset()
	if g.Off() != 0 || g.Active() != 0 || g.Lanes() != 0 {
		t.Fatal("Reset left state behind")
	}
	if err := g.Attach(6); err != nil {
		t.Fatalf("attach after Reset: %v", err)
	}
}

// saturationStream builds n bits (n/64 words) of fair random bits with
// runs of ones longer than hi planted across every block boundary and at
// random offsets, some spanning whole words.
func saturationStream(n, m, hi int, rng *rand.Rand) []uint64 {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	plant := func(start, length int) {
		for i := max(start, 0); i < min(start+length, n); i++ {
			bits[i] = 1
		}
	}
	for b := m; b < n; b += m {
		length := hi + 1 + rng.Intn(70)
		plant(b-rng.Intn(length), length)
	}
	for r := 0; r < n/256; r++ {
		plant(rng.Intn(n), hi+1+rng.Intn(150))
	}
	words := make([]uint64, n/64)
	for i, bit := range bits {
		words[i/64] |= uint64(bit) << uint(i%64)
	}
	return words
}

// netlistLongestRun returns the netlist's lr_run counter and lr_max
// tracker.
func netlistLongestRun(t *testing.T, b *hwblock.Block) (*hwsim.Counter, *hwsim.MaxTracker) {
	t.Helper()
	var run *hwsim.Counter
	var blk *hwsim.MaxTracker
	for _, p := range b.Netlist().Primitives() {
		switch p := p.(type) {
		case *hwsim.Counter:
			if p.Info().Name == "lr_run" {
				run = p
			}
		case *hwsim.MaxTracker:
			if p.Info().Name == "lr_max" {
				blk = p
			}
		}
	}
	if run == nil || blk == nil {
		t.Fatal("netlist has no lr_run/lr_max")
	}
	return run, blk
}

// TestLongestRunSaturation pins the longest-run saturation contract: like
// the netlist's lr_run and lr_max registers, the carried run and the block
// maximum stop at the top class bound hi. Runs longer than hi cross word
// and block boundaries for M = 8, 128 and 8192. At every word boundary
// hwfast's LRRun/LRBlkMax equal min(true, hi) and the netlist's registers,
// and the lane group's ExtractLane matches hwfast whether the tile took
// the odd-tile pass or either half of the pair loop.
func TestLongestRunSaturation(t *testing.T) {
	tests := []int{1, 4, 13}
	for _, m := range []int{8, 128, 8192} {
		t.Run(fmt.Sprintf("M%d", m), func(t *testing.T) {
			n := 2 * max(m, 1024)
			p := nist.Params{LongestRunM: m}
			_, hi, err := nist.LongestRunClassBounds(m)
			if err != nil {
				t.Fatal(err)
			}
			words := saturationStream(n, m, hi, rand.New(rand.NewSource(int64(m))))

			st, err := hwfast.New(n, tests, p)
			if err != nil {
				t.Fatal(err)
			}
			gold, err := hwblock.New(hwblock.Config{Name: "lr-saturation", N: n, Tests: tests, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			if err := gold.SetPath(hwblock.CycleAccurate); err != nil {
				t.Fatal(err)
			}
			lrRun, lrMax := netlistLongestRun(t, gold)
			// Group 0 absorbs one tile per call (the odd-tile pass); groups
			// 1 and 2 absorb pairs, group 2 one tile out of phase, so every
			// word boundary closes a pair in one of them.
			var groups [3]*hwslice.Group
			for i := range groups {
				if groups[i], err = hwslice.New(n, tests, p); err != nil {
					t.Fatal(err)
				}
				if err := groups[i].Attach(0); err != nil {
					t.Fatal(err)
				}
			}
			absorb := func(g *hwslice.Group, from, to int) {
				tiles := make([][64]uint64, to-from)
				for j := range tiles {
					tiles[j][0] = words[from+j]
				}
				if err := g.AbsorbTiles(tiles); err != nil {
					t.Fatal(err)
				}
			}

			run, blk := 0, 0 // the unsaturated reference
			saturated := 0
			var ws, wsG hwfast.WordStats
			for j, w := range words {
				for i := 0; i < 64; i++ {
					if w>>uint(i)&1 == 1 {
						run++
					} else {
						run = 0
					}
					blk = max(blk, run)
					if (64*j+i+1)%m == 0 {
						run, blk = 0, 0
					}
				}
				if run > hi {
					saturated++
				}
				if err := st.ClockWord(w, 64); err != nil {
					t.Fatal(err)
				}
				if err := gold.ClockWord(w, 64); err != nil {
					t.Fatal(err)
				}
				st.ExportWordStats(&ws)
				if ws.LRRun != min(run, hi) || ws.LRBlkMax != min(blk, hi) {
					t.Fatalf("word %d: hwfast run/max %d/%d, want min(%d/%d, %d)", j, ws.LRRun, ws.LRBlkMax, run, blk, hi)
				}
				if int(lrRun.Value()) != ws.LRRun || int(lrMax.Max()) != ws.LRBlkMax {
					t.Fatalf("word %d: netlist lr_run/lr_max %d/%d, hwfast %d/%d", j, lrRun.Value(), lrMax.Max(), ws.LRRun, ws.LRBlkMax)
				}
				absorb(groups[0], j, j+1)
				if j == 0 {
					absorb(groups[2], 0, 1)
				}
				for i, g := range groups[1:] {
					if j > i && (j+i)%2 == 1 {
						absorb(g, j-1, j+1)
					}
				}
				for i, g := range groups {
					if g.Off() != 64*(j+1) {
						continue
					}
					g.ExtractLane(0, &wsG)
					if !reflect.DeepEqual(wsG, ws) {
						t.Fatalf("word %d group %d: sliced %+v, hwfast %+v", j, i, wsG, ws)
					}
				}
			}
			if m >= 64 && saturated < 4 {
				t.Fatalf("only %d word boundaries carry a run above hi=%d", saturated, hi)
			}
		})
	}
}

// FuzzSliceEquivalence drives a ragged lane population over one of the
// small designs from fuzz-chosen bytes, absorbing fuzz-sized bursts of 1
// to 16 tiles (the pair-unrolled loop, the odd tail and sub-tile blocks),
// and cross-checks every attached lane against internal hwfast ingest
// after each burst.
func FuzzSliceEquivalence(f *testing.F) {
	f.Add(uint8(0), uint64(0xFFFFFFFFFFFFFFFF), int64(1), uint8(0))
	f.Add(uint8(1), uint64(0x8000000000000001), int64(2), uint8(1))
	f.Add(uint8(1), uint64(0), int64(3), uint8(2))
	f.Add(uint8(5), uint64(1<<63), int64(4), uint8(15))
	var small []int // the designs of at most 16 tiles, n=128 first
	for i, tc := range variants {
		if tc.n <= 1024 {
			small = append(small, i)
		}
	}
	f.Fuzz(func(t *testing.T, variant uint8, laneMask uint64, seed int64, burst uint8) {
		tc := variants[small[int(variant)%len(small)]]
		p := params(tc.n, tc.p)
		if laneMask == 0 {
			laneMask = 1
		}
		g, err := hwslice.New(tc.n, tc.tests, p)
		if err != nil {
			t.Fatal(err)
		}
		var shadows [64]*hwfast.State
		for l := 0; l < 64; l++ {
			if laneMask>>uint(l)&1 == 0 {
				continue
			}
			if err := g.Attach(l); err != nil {
				t.Fatal(err)
			}
			st, err := hwfast.New(tc.n, tc.tests, p)
			if err != nil {
				t.Fatal(err)
			}
			shadows[l] = st
		}
		rng := rand.New(rand.NewSource(seed))
		tiles := make([][64]uint64, 1+int(burst)%16)
		var ws1, ws2 hwfast.WordStats
		for k := 0; k < tc.n/64; {
			b := tiles[:min(len(tiles), tc.n/64-k)]
			for j := range b {
				for l := range b[j] {
					b[j][l] = rng.Uint64()
				}
				for l := 0; l < 64; l++ {
					if shadows[l] == nil {
						continue
					}
					if err := shadows[l].ClockWord(b[j][l], 64); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := g.AbsorbTiles(b); err != nil {
				t.Fatal(err)
			}
			k += len(b)
			for l := 0; l < 64; l++ {
				if shadows[l] == nil {
					continue
				}
				g.ExtractLane(l, &ws1)
				shadows[l].ExportWordStats(&ws2)
				if !reflect.DeepEqual(ws1, ws2) {
					t.Fatalf("tile %d lane %d: %+v != %+v", k, l, ws1, ws2)
				}
			}
		}
	})
}

// BenchmarkHWSliceAbsorb is the lane-occupancy scaling curve of the tile
// engine: n=65536 light and high designs with 1, 8, 32 and 64 lanes
// attached (lanes 0 … L−1, as the fleet's lowest-free-lane adoption packs
// them), absorbing random tiles in bursts of 16 as the fleet does. One op
// is one lane-word, so ns/op is the absorb cost per lane-word: with the
// engine's work proportional to the highest attached lane, the curve
// should stay roughly flat from 1 lane to 64. The n128-light/burst=1 row
// absorbs one tile per call, so every tile takes the kernel's odd-tile
// pass rather than its pair loop.
func BenchmarkHWSliceAbsorb(b *testing.B) {
	for _, v := range []struct {
		name    string
		variant hwblock.Variant
	}{{"light", hwblock.Light}, {"high", hwblock.High}} {
		cfg, err := hwblock.NewConfig(65536, v.variant)
		if err != nil {
			b.Fatal(err)
		}
		for _, lanes := range []int{1, 8, 32, 64} {
			b.Run(fmt.Sprintf("%s/lanes=%d", v.name, lanes), func(b *testing.B) {
				benchAbsorb(b, cfg, lanes, 16)
			})
		}
	}
	cfg, err := hwblock.NewConfig(128, hwblock.Light)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("n128-light/burst=1/lanes=64", func(b *testing.B) {
		benchAbsorb(b, cfg, 64, 1)
	})
}

// benchAbsorb feeds a group with the given lanes attached random tiles in
// bursts of burst tiles, rolling over at each sequence end; one op is one
// lane-word.
func benchAbsorb(b *testing.B, cfg hwblock.Config, lanes, burst int) {
	rng := rand.New(rand.NewSource(1))
	tiles := make([][64]uint64, cfg.N/64)
	for j := range tiles {
		for l := range tiles[j] {
			tiles[j][l] = rng.Uint64()
		}
	}
	g, err := hwslice.New(cfg.N, cfg.Tests, cfg.Params)
	if err != nil {
		b.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		if err := g.Attach(l); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for fed := 0; fed < b.N; fed += burst * lanes {
		if g.Off() == g.N() {
			g.Rollover()
		}
		j := g.Off() / 64
		if err := g.AbsorbTiles(tiles[j : j+burst]); err != nil {
			b.Fatal(err)
		}
	}
}
