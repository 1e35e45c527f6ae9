// Package online turns the platform's fixed-window per-sequence verdicts
// into continuous qualification: sliding-window variants of the
// word-parallelizable test statistics (frequency, block frequency, runs,
// longest run of ones, cumulative sums) that update with O(1) amortized
// work per bit, fold into one exponentially-decayed per-stream anomaly
// score, and report the bit position at which a drifting source was
// detected.
//
// # Relation to the fixed-window engines
//
// A Tracker maintains, over the last Window bits of a stream, exactly the
// raw statistics internal/hwfast accumulates over one N-bit sequence:
//
//   - ones count (test 1, frequency) — additive over the window.
//   - runs counter (test 3) — window-interior transitions + 1, the same
//     transitions+1 identity the hardware runs counter implements.
//   - block-frequency bank (test 2) — the last Window/M completed M-bit
//     blocks' ones counts, folded into Σ(2ε−M)².
//   - longest-run classes (test 4) — class counters over the last
//     Window/M completed M-bit blocks, run tracking restarting at block
//     boundaries exactly as in hardware.
//   - cumulative-sums extrema (test 13) — the window-relative random-walk
//     range, anchored at 0 on the window's first bit like a fresh
//     sequence's S_MIN/S_MAX registers.
//
// The differential contract, proven by this package's test suite across
// all eight Table III design points: with Window = N and the tracker fed
// the same bits as the monitor, every one of these statistics equals the
// corresponding hwfast register image at every sequence boundary. Between
// boundaries the window spans two sequences — that is the point: defects
// that straddle a boundary are visible immediately instead of after the
// next full sequence.
//
// # Mechanics
//
// The tracker runs internal/hwfast's per-word engines rather than copies
// of them, so the code the netlist-equivalence suite checks is the code
// that slides. Ingest is chunked: bits accumulate into 64-bit chunks, and
// each completed chunk contributes a constant-size summary (ones, interior
// transitions, boundary bits, and the walk delta and intra-chunk prefix
// extrema from hwfast.Walk) to a ring of Window/64 summaries. Window ones
// and transitions update additively on chunk append/evict; the window walk
// extrema come from monotonic deques over per-chunk extrema candidates, so
// even the 2^20-bit designs pay O(1) amortized per chunk rather than a
// window rescan. The block tests feed hwfast.BlockFreq and
// hwfast.LongestRun, whose Feed reports each closed block; closed blocks
// slide at block granularity through the tracker's block rings.
//
// # Min-entropy
//
// MCV, Markov and MinEntropy give the SP800-90B min-entropy estimates over
// the same window with no second ring: the adjacent-pair counts follow
// from the window ones, transitions and first/last bits (entropy.go), and
// feed sp80090b's count-to-estimate functions, so they are bit-identical
// to the batch estimators over the window's bits.
//
// # Scoring and detection
//
// Once the window is full, every chunk commit converts the five
// statistics to approximate standard scores under the ideal-source null
// (see DESIGN.md §6.3 for the formulas and constants), takes the worst
// absolute score as the instantaneous anomaly, and folds it into an
// exponentially-weighted moving average with half-life HalfLifeBits. The
// tracker latches an alarm — recording DetectedAt, the absolute bit
// position — after the score holds at or above Threshold for Confirm
// consecutive chunk commits. Latching is one-way until Reset, mirroring
// the supervisor's AlarmPolicy contract.
//
// The package is marked //trnglint:deterministic: a Tracker's entire
// state, scores included, is a pure function of the bits pushed since
// Reset, which is what lets the fleet's replay harness reproduce any
// stream's anomaly trajectory bit-for-bit.
//
//trnglint:deterministic
package online
