package online

import (
	"fmt"

	"repro/internal/sp80090b"
)

// The SP800-90B min-entropy estimates over the window. Both need only the
// window's ones count o and its adjacent-pair counts, and the pair counts
// follow from values the chunk ring already keeps: the interior
// transitions t and the window's first and last bits f and l. Over W bits
// there are W−1 pairs; the first W−1 bits hold o−l ones (p10 + p11) and
// the last W−1 bits o−f (p01 + p11), so
//
//	p10 = (t + f − l)/2,  p01 = (t − f + l)/2,
//	p11 = o − l − p10,    p00 = W − 1 − p10 − p01 − p11.
//
// The counts are exact integers and feed sp80090b's count-to-estimate
// functions, so at every chunk-aligned position the estimates are
// bit-identical to sp80090b.MostCommonValue and sp80090b.Markov run on the
// window's bits.

// errUnprimed reports an estimate requested before the window first fills.
func (t *Tracker) errUnprimed() error {
	return fmt.Errorf("online: window not yet full (%d of %d bits)", t.bits, t.cfg.Window)
}

// MCV returns the most-common-value min-entropy estimate over the current
// window. It errors until the window first fills.
func (t *Tracker) MCV() (*sp80090b.MCVEstimate, error) {
	if !t.Primed() {
		return nil, t.errUnprimed()
	}
	w := int64(t.cfg.Window)
	return sp80090b.MCVFromCounts(int(max(t.ones, w-t.ones)), t.cfg.Window), nil
}

// Markov returns the first-order Markov min-entropy estimate over the
// current window. It errors until the window first fills.
func (t *Tracker) Markov() (*sp80090b.MarkovEstimate, error) {
	if !t.Primed() {
		return nil, t.errUnprimed()
	}
	// A primed ring is full: the newest chunk sits just before head.
	k := len(t.meta)
	f := int64(t.meta[t.head].first)
	l := int64(t.meta[(t.head+k-1)%k].last)
	p10 := (t.trans + f - l) / 2
	p01 := (t.trans - f + l) / 2
	p11 := t.ones - l - p10
	p00 := int64(t.cfg.Window) - 1 - p10 - p01 - p11
	pairs := [2][2]float64{{float64(p00), float64(p01)}, {float64(p10), float64(p11)}}
	return sp80090b.MarkovFromCounts(pairs, float64(t.ones), t.cfg.Window), nil
}

// MinEntropy returns the conservative (minimum) of the two window
// estimates, or -1 until the window first fills.
func (t *Tracker) MinEntropy() float64 {
	mcv, err := t.MCV()
	if err != nil {
		return -1
	}
	mk, err := t.Markov()
	if err != nil {
		return -1
	}
	return min(mcv.MinEntropy, mk.MinEntropy)
}
