// Package core is the platform of the paper's Fig. 1: it couples a TRNG
// (or any bit source) to a hardware testing block and the embedded
// software evaluator, and runs them the way the paper prescribes — the
// hardware always on, digesting every bit the TRNG produces, with the
// software checking the counters at each sequence boundary. There is no
// single alarm wire: the monitor's verdict is a set of per-test decisions
// derived from transmitted counter values, which is the paper's defense
// against probing attacks on an alarm signal.
//
// Monitors, supervisors and the sequence runner are optionally instrumented
// through internal/obs (SetObs / SequenceRunner.Obs). Instrumentation is
// strictly observational: a nil registry is a no-op, and the attached case
// changes no statistical output bit — the package's differential suite
// (obs_differential_test.go) compares instrumented against uninstrumented
// runs byte for byte, over both ingest paths, the supervised pipeline and
// the parallel fan-out.
//
//trnglint:deterministic
package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/hwblock"
	"repro/internal/hwfast"
	"repro/internal/obs"
	"repro/internal/sweval"
	"repro/internal/trng"
)

// SourceError reports a failed source read. Bit is the absolute offset of
// the bit that could not be read — equivalently, the number of bits the
// monitor had consumed when the read failed. It wraps the source's error,
// so errors.Is(err, trng.ErrTransient) distinguishes retryable faults.
type SourceError struct {
	Bit int64
	Err error
}

// Error implements error.
func (e *SourceError) Error() string {
	return fmt.Sprintf("core: source failed at bit %d: %v", e.Bit, e.Err)
}

// Unwrap exposes the source's error to errors.Is / errors.As.
func (e *SourceError) Unwrap() error { return e.Err }

// ErrReadoutMismatch is returned by a verified evaluation pass when two
// reads of the register file disagree — transmitted counter values were
// corrupted in flight, so no verdict can be trusted and the sequence must
// be quarantined.
var ErrReadoutMismatch = errors.New("core: register readout mismatch between verification passes")

// ringSlots is the most history slots a bounded monitor allocates at its
// first sequence: the fleet's default bound (fleet.DefaultKeepReports).
const ringSlots = 16

// SequenceReport is the outcome of one completed test sequence.
type SequenceReport struct {
	// Index is the sequence number since the monitor started (0-based).
	Index int
	// StartBit is the absolute index of the sequence's first bit.
	StartBit int64
	// Report is the software evaluation of the hardware counters.
	Report *sweval.Report
}

// Monitor is an on-the-fly TRNG health monitor: one hardware testing block
// plus one software evaluator, fed bit by bit.
type Monitor struct {
	block *hwblock.Block
	eval  *sweval.Evaluator
	cv    *sweval.CriticalValues

	seq      int
	bitsSeen int64
	// history holds the retained reports. Once KeepHistory > 0 of them
	// are held it is a ring with the oldest at head: each completed
	// sequence is evaluated into the report of the slot it evicts, so a
	// full ring allocates nothing. It grows one slot per sequence until
	// then, and Reset and TakeHistory drop it.
	history []SequenceReport
	head    int
	// verify holds the verified feed's two passes (allocated on first
	// use): a mismatch must leave the slot the sequence would evict intact.
	verify [2]*sweval.Report

	// KeepHistory bounds the retained reports (0 = keep everything). With
	// KeepHistory = k, a report the monitor returns (from Feed, FeedWord,
	// FeedWordVerified, Watch or History) stays valid until k more
	// sequences complete: the k-th reuses its SequenceReport and its
	// sweval.Report for the newest sequence. Copy what must outlive that.
	// With KeepHistory = 0 every sequence gets a fresh report that the
	// monitor never writes again. A change takes effect at the next
	// completed sequence.
	KeepHistory int

	// Metered runs each sequence's software pass through the instruction
	// meter, so the report carries its Table III cost (Report.Cost and
	// every verdict's Cost) and an attached registry's
	// trng_monitor_eval_ops histogram observes it. By default the pass is
	// unmetered: the verdicts and the bus-word count are the same, the
	// costs are zero, and the pass is cheaper. A change takes effect at
	// the next completed sequence.
	Metered bool

	// Observability handles, cached once by SetObs. All of them are
	// nil-safe no-ops when no registry is attached, so the instrumented
	// monitor is bit-identical to an uninstrumented one (the differential
	// suite proves it).
	obs         *obs.Registry
	obsSeqPass  *obs.Counter
	obsSeqFail  *obs.Counter
	obsVerdicts map[int][2]*obs.Counter // per test: [pass, fail]
	obsEvalOps  *obs.Histogram
	obsBusReads *obs.Counter
	obsBitsSeen *obs.Gauge
}

// NewMonitor builds a monitor for the given design at level of
// significance alpha.
func NewMonitor(cfg hwblock.Config, alpha float64, opts ...sweval.Option) (*Monitor, error) {
	cv, err := sweval.NewCriticalValues(cfg, alpha, opts...)
	if err != nil {
		return nil, err
	}
	return NewMonitorWithValues(cfg, cv)
}

// NewMonitorWithValues builds a monitor around an already-derived set of
// critical values, whose design cfg must be (the same name, sequence
// length, tests and parameters). Deriving critical values is the expensive
// part of monitor construction (special functions, PWL tables); a fleet
// that instantiates thousands of monitors for one design derives them once
// and shares the constants — they are read-only after construction, so
// sharing is race-free. The monitor's block is built on the critical
// values' register map, so all monitors sharing cv share one map.
func NewMonitorWithValues(cfg hwblock.Config, cv *sweval.CriticalValues) (*Monitor, error) {
	if cv == nil {
		return nil, fmt.Errorf("core: nil critical values")
	}
	if err := cv.Config().CheckSame(cfg); err != nil {
		return nil, fmt.Errorf("core: critical values are for design %s, the monitor's differs: %w", cv.Config().Name, err)
	}
	return &Monitor{
		block: cv.RegMap().NewBlock(),
		eval:  sweval.NewEvaluator(cv),
		cv:    cv,
	}, nil
}

// Reset returns the monitor to its just-built state — hardware block
// (including the fast ingest path's functional model and its pending-word
// buffer), sequence counter, bit counter and history — without
// reallocating the block or re-deriving the critical values. Worker pools
// and the fleet layer reuse one monitor across many independent streams
// this way, so Reset must restore *every* piece of per-run state: retained
// history entries are zeroed and the ring is dropped, so a recycled
// monitor holds no reference to a previous tenant's reports and never
// writes one again.
func (m *Monitor) Reset() {
	m.block.Reset()
	m.seq = 0
	m.bitsSeen = 0
	clear(m.history)
	m.history, m.head = nil, 0
}

// SetObs attaches an observability registry: per-test verdict counters,
// sequence pass/fail counters, the software-evaluation cost histogram (in
// the paper's deterministic instruction-count units, not wall time — core
// is bit-reproducible, so no clock may enter here; metered passes only),
// the bus-word counter (every pass) and the ingest counters of the
// underlying hardware block. Handles are cached once; a nil
// registry detaches instrumentation and restores the zero-overhead path.
func (m *Monitor) SetObs(r *obs.Registry) {
	m.obs = r
	m.block.SetObs(r)
	if r == nil {
		m.obsSeqPass, m.obsSeqFail = nil, nil
		m.obsVerdicts = nil
		m.obsEvalOps, m.obsBusReads, m.obsBitsSeen = nil, nil, nil
		return
	}
	m.obsSeqPass = r.Counter("trng_monitor_sequences_total",
		"evaluated sequences by overall verdict", "result", "pass")
	m.obsSeqFail = r.Counter("trng_monitor_sequences_total",
		"evaluated sequences by overall verdict", "result", "fail")
	m.obsVerdicts = make(map[int][2]*obs.Counter, len(m.block.Config().Tests))
	for _, id := range m.block.Config().Tests {
		t := fmt.Sprintf("%d", id)
		m.obsVerdicts[id] = [2]*obs.Counter{
			r.Counter("trng_monitor_test_verdicts_total",
				"per-test software verdicts", "test", t, "verdict", "pass"),
			r.Counter("trng_monitor_test_verdicts_total",
				"per-test software verdicts", "test", t, "verdict", "fail"),
		}
	}
	m.obsEvalOps = r.Histogram("trng_monitor_eval_ops",
		"software evaluation cost per metered sequence, total instructions (Table III categories)",
		obs.Pow2Buckets(4, 20))
	m.obsBusReads = r.Counter("trng_monitor_bus_read_words_total",
		"16-bit register-file words transferred for software evaluation (the paper's READ count)")
	m.obsBitsSeen = r.Gauge("trng_monitor_bits_seen",
		"total bits the monitor has consumed, sampled at sequence boundaries")
}

// Config returns the monitored design.
func (m *Monitor) Config() hwblock.Config { return m.block.Config() }

// Block exposes the hardware testing block (for area reporting and
// register-file inspection).
func (m *Monitor) Block() *hwblock.Block { return m.block }

// LoadWordStats hands externally maintained sliceable-engine state back to
// the block (see hwblock.Block.LoadWordStats) and keeps the monitor's own
// bit count in step: a residual-free sliced stream feeds the monitor
// nothing between sequence boundaries, so the hand-back may fast-forward
// the position, and the skipped bits count as seen.
func (m *Monitor) LoadWordStats(ws *hwfast.WordStats) error {
	pre := m.block.BitsSeen()
	if err := m.block.LoadWordStats(ws); err != nil {
		return err
	}
	m.bitsSeen += int64(m.block.BitsSeen() - pre)
	return nil
}

// Alpha returns the configured level of significance.
func (m *Monitor) Alpha() float64 { return m.cv.Alpha }

// SetAlpha re-derives the critical values at a new level of significance —
// the flexibility the HW/SW split buys: the hardware is untouched.
func (m *Monitor) SetAlpha(alpha float64, opts ...sweval.Option) error {
	cv, err := sweval.NewCriticalValues(m.block.Config(), alpha, opts...)
	if err != nil {
		return err
	}
	m.cv = cv
	m.eval = sweval.NewEvaluator(cv)
	return nil
}

// Feed clocks one bit into the hardware. When the bit completes a
// sequence, the software evaluation runs and its report is returned;
// otherwise the report is nil. The hardware is immediately reset so the
// next sequence starts on the following bit — the tests stay active the
// whole time the TRNG runs, as [14] requires.
func (m *Monitor) Feed(bit byte) (*SequenceReport, error) {
	done, err := m.clockBit(bit)
	if err != nil {
		return nil, err
	}
	if !done {
		return nil, nil
	}
	return m.completeSequence(false)
}

// FeedWord clocks up to 64 bits into the hardware in one call — the
// fleet-scale ingest path. Bit i of w is the i-th bit chronologically
// (bitstream.Sequence packing). A word may straddle a sequence boundary:
// the completed sequence is evaluated mid-word and the remaining bits open
// the next one. When the word completes one or more sequences the report
// of the last completed sequence is returned (with the standard designs,
// N ≥ 128 ≥ nbits, at most one sequence can complete per call); it stays
// valid for the window KeepHistory states. The call is allocation-free
// except at the sequence boundaries that grow the history: every boundary
// with KeepHistory = 0, the first KeepHistory boundaries otherwise.
func (m *Monitor) FeedWord(w uint64, nbits int) (*SequenceReport, error) {
	return m.feedWord(w, nbits, false)
}

// FeedWordVerified is FeedWord with the double-readout defense: each
// completed sequence is evaluated twice and ErrReadoutMismatch is returned
// when the passes disagree. On a mismatch the sequence is left uncommitted
// and the hardware is NOT reset — the caller decides whether to quarantine
// (QuarantineInFlight) or abort; the remaining bits of the word are not
// consumed.
func (m *Monitor) FeedWordVerified(w uint64, nbits int) (*SequenceReport, error) {
	return m.feedWord(w, nbits, true)
}

func (m *Monitor) feedWord(w uint64, nbits int, verify bool) (*SequenceReport, error) {
	if nbits < 1 || nbits > 64 {
		return nil, fmt.Errorf("core: word size %d out of range [1,64]", nbits)
	}
	var last *SequenceReport
	for nbits > 0 {
		take := m.block.N() - m.block.BitsSeen()
		if take > nbits {
			take = nbits
		}
		if err := m.block.ClockWord(w, take); err != nil {
			return last, err
		}
		m.bitsSeen += int64(take)
		w >>= uint(take)
		nbits -= take
		if m.block.Done() {
			rep, err := m.completeSequence(verify)
			if err != nil {
				return last, err
			}
			last = rep
		}
	}
	return last, nil
}

// errBurstBoundary rejects a FeedWords burst that would reach the
// sequence boundary; it is preallocated so the rejection allocates nothing.
var errBurstBoundary = errors.New("core: word burst reaches the sequence boundary")

// FeedWords clocks a burst of whole 64-bit words, ws[0] first, that ends
// strictly before the current sequence's last bit — the bit-sliced lane
// feed, where a mid-sequence burst can complete no sequence, so nothing is
// evaluated, verified or reported inside it. The precondition is checked
// once per call; a burst that would reach the boundary returns an error
// and clocks nothing. The bits count toward BitsSeen as FeedWord's do.
//
//trnglint:hotpath
func (m *Monitor) FeedWords(ws []uint64) error {
	if len(ws) > (m.block.N()-m.block.BitsSeen()-1)/64 {
		return errBurstBoundary
	}
	if err := m.block.ClockWords(ws); err != nil {
		return err
	}
	m.bitsSeen += int64(64 * len(ws))
	return nil
}

// SequenceBits reports how many bits of the current (in-flight) sequence
// the hardware has absorbed — 0 exactly at a sequence boundary.
//
//trnglint:hotpath
func (m *Monitor) SequenceBits() int { return m.block.BitsSeen() }

// QuarantineInFlight discards the in-flight (or completed-but-unevaluated)
// sequence: the hardware is reset without an evaluation and no report is
// committed. The bits remain counted in BitsSeen. It reports whether
// anything was actually at risk — false when the fault landed exactly on a
// sequence boundary. This is the exported seam the supervisory layers
// (Supervisor, internal/fleet) quarantine through.
func (m *Monitor) QuarantineInFlight() bool {
	if m.block.BitsSeen() == 0 {
		return false
	}
	m.block.Reset()
	return true
}

// clockBit feeds one bit to the hardware without evaluating, reporting
// whether the bit completed a sequence. It is the lower half of Feed; the
// Supervisor uses it directly so that a sequence touched by an operational
// fault can be quarantined before any evaluation runs.
func (m *Monitor) clockBit(bit byte) (done bool, err error) {
	if err := m.block.Clock(bit); err != nil {
		return false, err
	}
	m.bitsSeen++
	return m.block.Done(), nil
}

// completeSequence evaluates the completed sequence, commits it to the
// history, and resets the hardware. With verify set, the software pass
// runs twice over the register file and the two reports are compared
// field by field: the evaluation is a pure function of the transmitted
// counter values, so any disagreement means a counter was corrupted in
// transmission, and the sequence is left uncommitted with
// ErrReadoutMismatch (the caller quarantines it). This is the
// software-side defense the paper's distributed-verdict design enables:
// there is no single alarm wire to probe, and no single bus read to trust.
func (m *Monitor) completeSequence(verify bool) (*SequenceReport, error) {
	m.fitHistory()
	full := m.KeepHistory > 0 && len(m.history) == m.KeepHistory
	var rep *sweval.Report
	if full {
		rep = m.history[m.head].Report
	}
	metered := m.Metered
	if verify {
		for i, r := range m.verify {
			if r == nil {
				r = new(sweval.Report)
				m.verify[i] = r
			}
			if err := m.evaluate(r, metered); err != nil {
				return nil, err
			}
		}
		if !reportsAgree(m.verify[0], m.verify[1]) {
			return nil, ErrReadoutMismatch
		}
		// The first pass becomes the sequence's report; the evicted one,
		// if any, takes over as scratch.
		rep, m.verify[0] = m.verify[0], rep
	} else {
		if rep == nil {
			rep = new(sweval.Report)
		}
		if err := m.evaluate(rep, metered); err != nil {
			return nil, err
		}
	}
	if m.obs != nil {
		m.observeReport(rep, metered)
	}
	var slot *SequenceReport
	if full {
		slot = &m.history[m.head]
		m.head = (m.head + 1) % len(m.history)
	} else {
		if m.history == nil && m.KeepHistory > 0 {
			// One allocation holds a bounded ring's slots up to the usual
			// bound; beyond it append grows them.
			m.history = make([]SequenceReport, 0, min(m.KeepHistory, ringSlots))
		}
		m.history = append(m.history, SequenceReport{})
		slot = &m.history[len(m.history)-1]
	}
	*slot = SequenceReport{
		Index:    m.seq,
		StartBit: m.bitsSeen - int64(m.block.N()),
		Report:   rep,
	}
	m.seq++
	m.block.Reset()
	return slot, nil
}

// evaluate runs the software pass over the completed block into rep,
// through the meter when metered is set.
func (m *Monitor) evaluate(rep *sweval.Report, metered bool) error {
	if metered {
		return m.eval.EvaluateInto(m.block, rep)
	}
	return m.eval.EvaluateVerdicts(m.block, rep)
}

// fitHistory brings the ring in line with a KeepHistory changed since
// the last sequence: it keeps only the newest KeepHistory reports when the
// ring must shrink, zeroing the vacated slots so no stale report stays
// reachable, and puts the reports in order when a wrapped ring must grow.
func (m *Monitor) fitHistory() {
	switch k := m.KeepHistory; {
	case k > 0 && len(m.history) > k:
		m.linearize()
		n := copy(m.history, m.history[len(m.history)-k:])
		clear(m.history[n:])
		m.history = m.history[:n]
	case m.head != 0 && len(m.history) != k:
		m.linearize()
	}
}

// linearize rotates the ring in place so that the oldest report is first.
func (m *Monitor) linearize() {
	if m.head != 0 && m.head != len(m.history) {
		slices.Reverse(m.history[:m.head])
		slices.Reverse(m.history[m.head:])
		slices.Reverse(m.history)
	}
	m.head = 0
}

// observeReport folds one accepted evaluation into the attached registry.
// Only a metered pass has a cost for the evaluation-cost histogram; every
// pass counts its bus words.
func (m *Monitor) observeReport(rep *sweval.Report, metered bool) {
	if rep.Pass() {
		m.obsSeqPass.Inc()
	} else {
		m.obsSeqFail.Inc()
	}
	for i := range rep.Verdicts {
		v := &rep.Verdicts[i]
		h := m.obsVerdicts[v.TestID]
		if v.Pass {
			h[0].Inc()
		} else {
			h[1].Inc()
		}
	}
	if metered {
		m.obsEvalOps.Observe(float64(rep.Cost.Total()))
	}
	m.obsBusReads.Add(uint64(rep.BusWords))
	m.obsBitsSeen.Set(float64(m.bitsSeen))
}

// reportsAgree compares two evaluation passes verdict by verdict.
func reportsAgree(a, b *sweval.Report) bool {
	if len(a.Verdicts) != len(b.Verdicts) {
		return false
	}
	for i := range a.Verdicts {
		va, vb := &a.Verdicts[i], &b.Verdicts[i]
		if va.TestID != vb.TestID || va.Pass != vb.Pass || va.Statistic != vb.Statistic {
			return false
		}
	}
	return true
}

// Watch drains bits from the source until the requested number of
// sequences have been evaluated, returning their reports; with
// KeepHistory = k only the last k of them stay valid. A failed source
// read aborts the watch with a *SourceError carrying the bit offset and
// the already-completed reports; callers that can recover (see
// Supervisor) inspect it with errors.As.
func (m *Monitor) Watch(src trng.Source, sequences int) ([]SequenceReport, error) {
	var out []SequenceReport
	for len(out) < sequences {
		bit, err := src.ReadBit()
		if err != nil {
			return out, &SourceError{Bit: m.bitsSeen, Err: err}
		}
		rep, err := m.Feed(bit)
		if err != nil {
			return out, err
		}
		if rep != nil {
			out = append(out, *rep)
		}
	}
	return out, nil
}

// History returns the retained sequence reports, oldest first: the
// monitor's own storage when the ring's oldest slot is its first, an
// ordered copy otherwise. Either way the reports are the monitor's, valid
// for the window KeepHistory states.
func (m *Monitor) History() []SequenceReport {
	if m.head == 0 {
		return m.history
	}
	return slices.Concat(m.history[m.head:], m.history[:m.head])
}

// TakeHistory returns the retained sequence reports, oldest first, and
// hands them to the caller: the monitor forgets them and starts a new
// history, so neither a later sequence nor Reset ever writes them. A
// *SequenceReport the monitor returned earlier may now point at another of
// the taken reports.
func (m *Monitor) TakeHistory() []SequenceReport {
	m.linearize()
	h := m.history
	m.history = nil
	return h
}

// BitsSeen reports the total number of bits consumed.
func (m *Monitor) BitsSeen() int64 { return m.bitsSeen }

// DetectionResult describes when a monitor first flagged a defect.
type DetectionResult struct {
	// Detected reports whether any sequence failed.
	Detected bool
	// SequenceIndex is the first failing sequence (valid if Detected).
	SequenceIndex int
	// LatencyBits is the number of bits from the defect onset to the end
	// of the first failing sequence.
	LatencyBits int64
	// FailedTests are the tests that flagged in the first failing
	// sequence.
	FailedTests []int
}

// DetectionLatency measures how quickly the monitor detects a defect that
// begins at bit onsetBit of the source's stream: it runs the monitor for at
// most maxSequences and reports the first failure.
func (m *Monitor) DetectionLatency(src trng.Source, onsetBit int64, maxSequences int) (DetectionResult, error) {
	for i := 0; i < maxSequences; i++ {
		reps, err := m.Watch(src, 1)
		if err != nil {
			return DetectionResult{}, err
		}
		r := reps[0]
		if !r.Report.Pass() {
			return DetectionResult{
				Detected:      true,
				SequenceIndex: r.Index,
				LatencyBits:   m.bitsSeen - onsetBit,
				FailedTests:   r.Report.Failed(),
			}, nil
		}
	}
	return DetectionResult{}, nil
}
