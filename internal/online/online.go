package online

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hwblock"
	"repro/internal/hwfast"
	"repro/internal/nist"
)

// chunkBits is the commit granularity: bits accumulate into chunks of
// this size, and all window bookkeeping (ring summaries, extrema deques,
// scoring) advances one chunk at a time. 64 matches the ingest word width
// of the fast path, so a full-width word commits exactly one chunk.
const chunkBits = 64

// Config tunes a Tracker. The zero value of every field selects a
// default derived from the design, so Config{} is a valid configuration.
type Config struct {
	// Window is the sliding-window length in bits. It must be a positive
	// multiple of 64 and of every enabled block length. 0 selects the
	// design's sequence length N, which is what makes the window
	// statistics land exactly on the fixed-window register image at
	// sequence boundaries.
	Window int
	// HalfLifeBits is the anomaly-score EWMA half-life: a score
	// contribution decays by half every HalfLifeBits ingested bits.
	// 0 selects 4×Window.
	HalfLifeBits int
	// Threshold is the score level that arms detection. 0 selects 4.0 —
	// roughly a 4σ worst-statistic excursion sustained for about a
	// half-life.
	Threshold float64
	// Confirm is how many consecutive chunk commits the score must hold
	// at or above Threshold before the alarm latches; it suppresses
	// single-chunk spikes. 0 selects 2.
	Confirm int
}

// withDefaults resolves zero fields against sequence length n.
func (c Config) withDefaults(n int) Config {
	if c.Window == 0 {
		c.Window = n
	}
	if c.HalfLifeBits == 0 {
		c.HalfLifeBits = 4 * c.Window
	}
	if c.Threshold == 0 {
		c.Threshold = 4.0
	}
	if c.Confirm == 0 {
		c.Confirm = 2
	}
	return c
}

// Scores holds the per-test standard scores from the latest scored chunk
// commit. Tests the design does not implement are NaN.
type Scores struct {
	// Freq is the frequency (monobit) z-score of the window ones count.
	Freq float64
	// BlockFreq is the normalized block-frequency χ² excess.
	BlockFreq float64
	// Runs is the z-score of the window-interior transition count.
	Runs float64
	// LongestRun is the normalized longest-run-class χ² excess.
	LongestRun float64
	// Cusum is the z-score of the window-relative random-walk range.
	Cusum float64
}

// chunkMeta is one committed chunk's constant-size window summary.
type chunkMeta struct {
	// pre is the global walk value before the chunk's first bit; cmin and
	// cmax are the global-walk prefix extrema across the chunk (pre
	// included, so chunk boundaries are always candidates).
	pre, cmin, cmax int64
	// ones and trans are the chunk's ones count and interior transition
	// count; first and last are its boundary bits, used for the seam
	// transition between adjacent chunks.
	ones, trans uint16
	first, last byte
}

// minDeque is a monotonically increasing deque over (chunk sequence
// number, candidate value) pairs: the front always holds the window
// minimum among the candidates pushed and not yet expired. Maxima reuse
// it with negated values. Backed by a ring sized to the window's chunk
// count, so steady state allocates nothing.
type minDeque struct {
	seq  []int64
	val  []int64
	head int
	n    int
}

func (d *minDeque) reset() { d.head, d.n = 0, 0 }

// push appends a candidate, discarding dominated entries from the back.
func (d *minDeque) push(seq, val int64) {
	for d.n > 0 {
		b := (d.head + d.n - 1) % len(d.val)
		if d.val[b] < val {
			break
		}
		d.n--
	}
	i := (d.head + d.n) % len(d.val)
	d.seq[i], d.val[i] = seq, val
	d.n++
}

// expire drops front entries whose chunk has left the window.
func (d *minDeque) expire(oldest int64) {
	for d.n > 0 && d.seq[d.head] < oldest {
		d.head = (d.head + 1) % len(d.val)
		d.n--
	}
}

func (d *minDeque) front() int64 { return d.val[d.head] }

// Tracker is the streaming anomaly detector for one bit stream. It is
// not safe for concurrent use; in the fleet each stream's tracker lives
// on the stream's shard, exactly like its monitor. Feed bits with Push;
// read the trajectory with Score, Instant and ZScores; detection state
// with Alarmed and DetectedAt.
type Tracker struct {
	cfg   Config
	decay float64 // EWMA carry-over per chunk commit

	hasBF, hasLR, hasRuns bool

	// in-flight chunk accumulator.
	cur     uint64
	curBits int
	bits    int64 // total bits pushed since Reset

	// global random walk (never reset by the window; extrema are taken
	// window-relative, so only differences matter).
	walk     int64
	chunkSeq int64 // committed chunks since Reset

	// chunk summary ring: meta[head..head+count) are the window's chunks,
	// oldest first.
	meta  []chunkMeta
	head  int
	count int

	ones  int64 // window ones
	trans int64 // window-interior transitions (seams included)

	minDq, maxDq minDeque

	// block frequency: in-flight block plus a ring of the last Window/M
	// completed blocks' ones counts, folded into bfD = Σ(2ε−M)².
	bfM      int
	bf       hwfast.BlockFreq
	bfRing   []uint32
	bfHead   int
	bfCount  int
	bfD      int64
	bfBlocks float64 // float64(len(bfRing)), cached for scoring

	// longest run of ones: in-flight block plus a ring of class indices
	// and the window class counters.
	lr        hwfast.LongestRun
	lrRing    []uint8
	lrHead    int
	lrCount   int
	lrClasses []uint64
	lrProbs   []float64 // null class probabilities, scaled at scoring
	lrDF      float64   // degrees of freedom, cached

	// scoring and detection.
	scores     Scores
	instant    float64
	score      float64
	streak     int
	alarmed    bool
	detectedAt int64
}

// New builds a Tracker for the given design, resolving cfg's zero fields
// against it. The enabled window statistics follow the design's test
// subset: frequency and cusum always run (they need only the walk), runs,
// block frequency and longest run only when the design implements tests
// 3, 2 and 4 respectively.
func New(design hwblock.Config, cfg Config) (*Tracker, error) {
	cfg = cfg.withDefaults(design.N)
	if cfg.Window < chunkBits || cfg.Window%chunkBits != 0 {
		return nil, fmt.Errorf("online: window %d is not a positive multiple of %d", cfg.Window, chunkBits)
	}
	if cfg.HalfLifeBits < chunkBits {
		return nil, fmt.Errorf("online: half-life %d shorter than one chunk (%d bits)", cfg.HalfLifeBits, chunkBits)
	}
	if cfg.Confirm < 1 {
		return nil, fmt.Errorf("online: confirm count %d must be at least 1", cfg.Confirm)
	}
	if cfg.Threshold <= 0 || math.IsNaN(cfg.Threshold) {
		return nil, fmt.Errorf("online: threshold %v must be positive", cfg.Threshold)
	}
	k := cfg.Window / chunkBits
	t := &Tracker{
		cfg:     cfg,
		decay:   math.Exp2(-float64(chunkBits) / float64(cfg.HalfLifeBits)),
		hasRuns: design.Has(3),
		meta:    make([]chunkMeta, k),
		minDq:   minDeque{seq: make([]int64, k), val: make([]int64, k)},
		maxDq:   minDeque{seq: make([]int64, k), val: make([]int64, k)},
	}
	if design.Has(2) {
		m := design.Params.BlockFrequencyM
		if m < 1 || cfg.Window%m != 0 {
			return nil, fmt.Errorf("online: block frequency M=%d does not divide window %d", m, cfg.Window)
		}
		t.hasBF = true
		t.bfM = m
		t.bf = hwfast.NewBlockFreq(m)
		t.bfRing = make([]uint32, cfg.Window/m)
		t.bfBlocks = float64(cfg.Window / m)
	}
	if design.Has(4) {
		m := design.Params.LongestRunM
		lr, err := hwfast.NewLongestRun(m)
		if err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
		if cfg.Window%m != 0 {
			return nil, fmt.Errorf("online: longest run M=%d does not divide window %d", m, cfg.Window)
		}
		lo, hi := lr.Bounds()
		probs, err := nist.LongestRunClassProbs(m, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
		t.hasLR = true
		t.lr = lr
		t.lrRing = make([]uint8, cfg.Window/m)
		t.lrClasses = make([]uint64, hi-lo+1)
		t.lrProbs = probs
		t.lrDF = float64(hi - lo)
	}
	t.Reset()
	return t, nil
}

// Window returns the resolved sliding-window length in bits.
func (t *Tracker) Window() int { return t.cfg.Window }

// ConfigUsed returns the fully resolved configuration (defaults applied).
func (t *Tracker) ConfigUsed() Config { return t.cfg }

// BitsSeen returns the total bits pushed since Reset.
func (t *Tracker) BitsSeen() int64 { return t.bits }

// Primed reports whether a full window has been ingested; scores are not
// produced (and the alarm cannot latch) before that.
func (t *Tracker) Primed() bool {
	return t.count == len(t.meta) && t.bits >= int64(t.cfg.Window)
}

// Score returns the exponentially-decayed anomaly score. It is 0 until
// the window first fills.
func (t *Tracker) Score() float64 { return t.score }

// Instant returns the most recent instantaneous anomaly — the worst
// absolute standard score across the enabled statistics at the last
// scored chunk commit.
func (t *Tracker) Instant() float64 { return t.instant }

// ZScores returns the per-test standard scores from the last scored
// chunk commit. Disabled tests are NaN.
func (t *Tracker) ZScores() Scores { return t.scores }

// Alarmed reports whether the anomaly alarm has latched since Reset.
func (t *Tracker) Alarmed() bool { return t.alarmed }

// DetectedAt returns the absolute bit position (BitsSeen at the latching
// chunk commit) at which the alarm latched, or -1 if it has not.
func (t *Tracker) DetectedAt() int64 {
	if !t.alarmed {
		return -1
	}
	return t.detectedAt
}

// Reset returns the tracker to its initial state, retaining allocations.
// The configuration (and therefore the resolved window) is preserved.
func (t *Tracker) Reset() {
	t.cur, t.curBits, t.bits = 0, 0, 0
	t.walk, t.chunkSeq = 0, 0
	t.head, t.count = 0, 0
	t.ones, t.trans = 0, 0
	t.minDq.reset()
	t.maxDq.reset()
	t.bf.Reset()
	t.bfHead, t.bfCount, t.bfD = 0, 0, 0
	t.lr.Reset()
	t.lrHead, t.lrCount = 0, 0
	for i := range t.lrClasses {
		t.lrClasses[i] = 0
	}
	t.scores = Scores{Freq: math.NaN(), BlockFreq: math.NaN(), Runs: math.NaN(), LongestRun: math.NaN(), Cusum: math.NaN()}
	t.instant, t.score = 0, 0
	t.streak = 0
	t.alarmed, t.detectedAt = false, -1
}

// Push ingests nbits bits (1..64). Bit i of w is the i-th bit
// chronologically — the packing order of bitstream.Sequence and of
// hwfast.ClockWord, so monitor feed words pass straight through.
//
//trnglint:hotpath
func (t *Tracker) Push(w uint64, nbits int) {
	if nbits < 1 || nbits > 64 {
		panic(fmt.Sprintf("online: word size %d out of range [1,64]", nbits)) //trnglint:alloc argument-validation panic, never taken at line rate
	}
	v := w
	if nbits < 64 {
		v &= 1<<uint(nbits) - 1
	}
	// Segments are chunk-aligned so the block engines are never ahead of
	// the window position when a mid-word commit scores the window.
	for off := 0; off < nbits; {
		take := min(nbits-off, chunkBits-t.curBits)
		seg := v >> uint(off)
		if t.hasBF {
			for o := 0; o < take; {
				n, eps, closed := t.bf.Feed(seg>>uint(o), take-o)
				if closed {
					t.pushBFBlock(uint32(eps))
				}
				o += n
			}
		}
		if t.hasLR {
			for o := 0; o < take; {
				n, class, closed := t.lr.Feed(seg>>uint(o), take-o)
				if closed {
					t.pushLRBlock(uint8(class))
				}
				o += n
			}
		}
		// Bits of seg above take are either zero (v is masked) or shift
		// out of the chunk, which take fills exactly.
		t.cur |= seg << uint(t.curBits)
		t.curBits += take
		t.bits += int64(take)
		if t.curBits == chunkBits {
			t.commit()
			t.cur, t.curBits = 0, 0
		}
		off += take
	}
}

// commit folds the completed in-flight chunk into the window and, once
// the window is full, advances the anomaly score.
func (t *Tracker) commit() {
	v := t.cur
	// Chunk walk summary: extrema over every intra-chunk prefix (chunk
	// start included — boundary values belong to the previous chunk or to
	// the window anchor, so keeping them as candidates is always correct).
	s, mn, mx := hwfast.Walk(v, chunkBits)
	pre := t.walk
	t.walk += s

	// Evict the oldest chunk when the ring is full: its counts leave the
	// window, as does its seam transition into its (still resident)
	// successor.
	k := len(t.meta)
	if t.count == k {
		old := &t.meta[t.head]
		t.ones -= int64(old.ones)
		t.trans -= int64(old.trans)
		if t.count > 1 {
			next := &t.meta[(t.head+1)%k]
			if old.last != next.first {
				t.trans--
			}
		}
		t.head = (t.head + 1) % k
		t.count--
	}

	// Append the new chunk.
	idx := (t.head + t.count) % k
	m := &t.meta[idx]
	m.pre, m.cmin, m.cmax = pre, pre+mn, pre+mx
	m.ones = uint16(bits.OnesCount64(v))
	m.trans = uint16(bits.OnesCount64((v ^ v>>1) &^ (1 << (chunkBits - 1))))
	m.first = byte(v & 1)
	m.last = byte(v >> (chunkBits - 1))
	if t.count > 0 {
		prev := &t.meta[(idx+k-1)%k]
		if prev.last != m.first {
			t.trans++
		}
	}
	t.ones += int64(m.ones)
	t.trans += int64(m.trans)
	t.count++

	seq := t.chunkSeq
	t.chunkSeq++
	// Expire before push: the deque then never holds more than the
	// window's chunk count, which is exactly its ring capacity.
	oldest := t.chunkSeq - int64(t.count)
	t.minDq.expire(oldest)
	t.maxDq.expire(oldest)
	t.minDq.push(seq, m.cmin)
	t.maxDq.push(seq, -m.cmax)

	if t.count == k {
		t.updateScore()
	}
}

// pushBFBlock slides the block ring and the Σ(2ε−M)² aggregate.
func (t *Tracker) pushBFBlock(eps uint32) {
	n := len(t.bfRing)
	if t.bfCount == n {
		d := 2*int64(t.bfRing[t.bfHead]) - int64(t.bfM)
		t.bfD -= d * d
		t.bfHead = (t.bfHead + 1) % n
		t.bfCount--
	}
	t.bfRing[(t.bfHead+t.bfCount)%n] = eps
	d := 2*int64(eps) - int64(t.bfM)
	t.bfD += d * d
	t.bfCount++
}

// pushLRBlock slides the class ring and the window class counters.
func (t *Tracker) pushLRBlock(class uint8) {
	n := len(t.lrRing)
	if t.lrCount == n {
		t.lrClasses[t.lrRing[t.lrHead]]--
		t.lrHead = (t.lrHead + 1) % n
		t.lrCount--
	}
	t.lrRing[(t.lrHead+t.lrCount)%n] = class
	t.lrClasses[class]++
	t.lrCount++
}

// WindowOnes returns the ones count over the current window.
func (t *Tracker) WindowOnes() int64 { return t.ones }

// WindowRuns returns the runs count over the current window: interior
// transitions + 1, the hardware runs-counter identity applied to the
// window as if it were a fresh sequence. 0 before any chunk commits.
func (t *Tracker) WindowRuns() int64 {
	if t.count == 0 {
		return 0
	}
	return t.trans + 1
}

// WindowWalk returns the window-relative cumulative-sums state: the final
// walk value and the extrema, all anchored at 0 on the window's first
// bit — the same convention as a fresh sequence's S/S_MIN/S_MAX.
func (t *Tracker) WindowWalk() (final, min, max int64) {
	if t.count == 0 {
		return 0, 0, 0
	}
	base := t.meta[t.head].pre
	final = t.walk - base
	min = 0
	if v := t.minDq.front() - base; v < 0 {
		min = v
	}
	max = 0
	if v := -t.maxDq.front() - base; v > 0 {
		max = v
	}
	return final, min, max
}

// BlockFreqD returns Σ(2ε−M)² over the window's completed
// block-frequency blocks, or -1 when the design has no test 2.
func (t *Tracker) BlockFreqD() int64 {
	if !t.hasBF {
		return -1
	}
	return t.bfD
}

// LongestRunClasses appends the window longest-run class counters to dst
// and returns it; nil when the design has no test 4.
func (t *Tracker) LongestRunClasses(dst []uint64) []uint64 {
	if !t.hasLR {
		return nil
	}
	return append(dst, t.lrClasses...)
}
