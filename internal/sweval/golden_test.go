package sweval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/obs"
	"repro/internal/trng"
)

// goldenReportHash pins every observable of an evaluation pass across the
// shipped designs. A change to the evaluator's arithmetic, its metering,
// the order or number of its bus reads, or the addresses those reads hit
// moves it.
const goldenReportHash = "d60a069ea0ba306f"

// reportDigest folds one report into h: each verdict's TestID, Pass,
// Statistic, Threshold, Note and cost, then the total cost and the number
// of bus transactions the pass issued.
func reportDigest(h hash.Hash, rep *Report, busReads int64) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putCost := func(c Cost) {
		for _, v := range c {
			put(int64(v))
		}
	}
	put(int64(len(rep.Verdicts)))
	for _, v := range rep.Verdicts {
		put(int64(v.TestID))
		if v.Pass {
			put(1)
		} else {
			put(0)
		}
		put(v.Statistic)
		put(v.Threshold)
		put(int64(len(v.Note)))
		io.WriteString(h, v.Note)
		putCost(rep.TestCost(v.TestID))
	}
	putCost(rep.Cost)
	put(busReads)
}

// TestReportGolden evaluates every shipped design at the 16-, 32- and
// 64-bit word sizes on an ideal and a biased (p = 0.6) sequence, plus one
// 16-bit pass per design whose bus flips bit 1 of the word at address 5,
// and compares the hash of all reports with the pinned value.
func TestReportGolden(t *testing.T) {
	h := sha256.New()
	for _, cfg := range hwblock.AllConfigs() {
		cv, err := NewCriticalValues(cfg, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []trng.Source{trng.NewIdeal(31), trng.NewBiased(0.6, 32)} {
			b, err := hwblock.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Run(bitstream.NewReader(trng.Read(src, cfg.N))); err != nil {
				t.Fatal(err)
			}
			rf := b.RegFile()
			pass := func(ev *Evaluator) {
				pre := rf.BusReads()
				rep, err := ev.Evaluate(b)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				reportDigest(h, rep, rf.BusReads()-pre)
			}
			for _, wb := range []int{WordSize16, WordSize32, WordSize64} {
				ev, err := NewEvaluatorWordSize(cv, wb)
				if err != nil {
					t.Fatal(err)
				}
				pass(ev)
			}
			if _, ideal := src.(*trng.Ideal); ideal {
				rf.SetReadFault(func(addr int, w uint16) uint16 {
					if addr == 5 {
						return w ^ 2
					}
					return w
				})
				pass(NewEvaluator(cv))
				rf.SetReadFault(nil)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != goldenReportHash {
		t.Errorf("report hash %s, pinned %s", got, goldenReportHash)
	}
}

// goldenBusTraceHash pins the bus transactions of an evaluation pass: the
// address and word of every read, in issue order, with the lifetime and
// exposition read counters. A fault schedule such as
// faultinject.RegCorruptor keys on this order, so a readout change that
// keeps the reports but moves a read moves this hash.
const goldenBusTraceHash = "d807f1fca374da34"

// TestEvaluateBusTrace evaluates every shipped design at the 16-bit word
// size on an ideal and a biased (p = 0.6) sequence through an identity
// read-fault hook that logs each (address, word), and compares the hash of
// the logs, the BusReads advance and the trng_regfile_bus_reads_total
// advance with the pinned value.
func TestEvaluateBusTrace(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, cfg := range hwblock.AllConfigs() {
		cv, err := NewCriticalValues(cfg, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []trng.Source{trng.NewIdeal(31), trng.NewBiased(0.6, 32)} {
			b, err := hwblock.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			b.SetObs(reg)
			counter := reg.Counter("trng_regfile_bus_reads_total", "")
			if err := b.Run(bitstream.NewReader(trng.Read(src, cfg.N))); err != nil {
				t.Fatal(err)
			}
			rf := b.RegFile()
			var log []uint64
			rf.SetReadFault(func(addr int, w uint16) uint16 {
				log = append(log, uint64(addr)<<16|uint64(w))
				return w
			})
			preBus, preObs := rf.BusReads(), counter.Value()
			if _, err := NewEvaluator(cv).Evaluate(b); err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			busReads, obsReads := rf.BusReads()-preBus, counter.Value()-preObs
			if int64(len(log)) != busReads || uint64(busReads) != obsReads {
				t.Errorf("%s: %d hooked words, BusReads +%d, counter +%d", cfg.Name, len(log), busReads, obsReads)
			}
			put(uint64(len(log)))
			for _, v := range log {
				put(v)
			}
			put(uint64(busReads))
			put(obsReads)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != goldenBusTraceHash {
		t.Errorf("bus trace hash %s, pinned %s", got, goldenBusTraceHash)
	}
}
