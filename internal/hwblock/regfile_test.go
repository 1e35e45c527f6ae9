package hwblock

import (
	"slices"
	"testing"

	"repro/internal/obs"
)

// TestRegFileReadFaultHook reads GLOBAL_BITS, the word at address 0,
// through a read-fault hook that flips its low bit.
func TestRegFileReadFaultHook(t *testing.T) {
	b, err := New(cfg128(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ClockWord(0, 5); err != nil {
		t.Fatal(err)
	}
	rf := b.RegFile()
	if got := rf.ReadWord(0); got != 5 {
		t.Fatalf("fault-free read = %#x, want 5", got)
	}

	var seenAddr int
	rf.SetReadFault(func(addr int, word uint16) uint16 {
		seenAddr = addr
		return word ^ 0x0001
	})
	if got := rf.ReadWord(0); got != 4 {
		t.Errorf("faulted read = %#x, want 4", got)
	}
	if seenAddr != 0 {
		t.Errorf("hook saw address %d", seenAddr)
	}
	// The hook also covers the unmapped default leg.
	if got := rf.ReadWord(rf.Words()); got != 0x0001 {
		t.Errorf("faulted unmapped read = %#x, want 1", got)
	}

	rf.SetReadFault(nil)
	if got := rf.ReadWord(0); got != 5 {
		t.Errorf("read after uninstall = %#x", got)
	}
}

// TestRegFileBusReadCounter reads the two-word GLOBAL_BITS of an
// n = 65536 design.
func TestRegFileBusReadCounter(t *testing.T) {
	cfg, err := NewConfig(65536, Light)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rf := b.RegFile()
	start := rf.BusReads()
	if _, busReads, err := rf.ReadValue("GLOBAL_BITS"); err != nil || busReads != 2 {
		t.Fatalf("ReadValue = %d bus reads, err %v", busReads, err)
	}
	if got := rf.BusReads() - start; got != 2 {
		t.Errorf("BusReads advanced by %d, want 2", got)
	}
}

// TestReadRangeMatchesReadWord reads every shipped design's register file
// at several bit positions on the fast path, each time on two blocks fed
// the same bits: one read first through ReadRange over all entries, the
// other through ReadWord word by word. Both reads start on a dirty block,
// so each relies on its own prepare call to publish the fast path's state.
// Every entry must equal its reassembled words, the read-fault hook must
// see the same addresses and words in the same order, and BusReads and
// trng_regfile_bus_reads_total must advance by the same counts. The check
// runs without a hook and with one that flips address-dependent bits.
func TestReadRangeMatchesReadWord(t *testing.T) {
	// bit j of the input is bit j%64 of word(j/64); ClockWord takes ragged
	// pieces of it so that reads also land between and inside words.
	word := func(k int) uint64 {
		z := uint64(k+1) * 0x9E3779B97F4A7C15
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		return z ^ z>>31
	}
	pieces := []int{64, 37, 1, 13, 64, 64, 5}
	feed := func(b *Block, from, to int) {
		for pos, k := from, 0; pos < to; k++ {
			take := min(to-pos, 64-pos%64, pieces[k%len(pieces)])
			v := word(pos/64) >> uint(pos%64)
			if take < 64 {
				v &= 1<<uint(take) - 1
			}
			if err := b.ClockWord(v, take); err != nil {
				t.Fatal(err)
			}
			pos += take
		}
	}
	for _, cfg := range AllConfigs() {
		for _, hooked := range []bool{false, true} {
			var blocks [2]*Block
			var logs [2][]uint32
			var counters [2]*obs.Counter
			for i := range blocks {
				b, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if b.Path() != FastPath {
					t.Fatalf("%s: not on the fast path", cfg.Name)
				}
				reg := obs.NewRegistry()
				b.SetObs(reg)
				counters[i] = reg.Counter("trng_regfile_bus_reads_total", "")
				if hooked {
					b.RegFile().SetReadFault(func(addr int, w uint16) uint16 {
						logs[i] = append(logs[i], uint32(addr)<<16|uint32(w))
						return w ^ uint16(addr*0x3D)
					})
				}
				blocks[i] = b
			}
			pos := 0
			for _, at := range []int{1, 63, 200, cfg.N/3 + 7, cfg.N - 1, cfg.N} {
				if at > cfg.N || at <= pos {
					continue
				}
				for _, b := range blocks {
					feed(b, pos, at)
				}
				pos = at
				logs[0], logs[1] = logs[0][:0], logs[1][:0]

				rf := blocks[0].RegFile()
				preBus, preObs := rf.BusReads(), counters[0].Value()
				// Two calls, split at a position-dependent entry, so that
				// ranges starting past entry 0 are covered too.
				entries := blocks[0].RegMap().Entries()
				got := make([]uint64, len(entries))
				split := at % len(got)
				busReads := rf.ReadRange(0, got[:split]) + rf.ReadRange(split, got[split:])
				rangeBus, rangeObs := rf.BusReads()-preBus, counters[0].Value()-preObs

				rf = blocks[1].RegFile()
				preBus, preObs = rf.BusReads(), counters[1].Value()
				for k, e := range entries {
					var want uint64
					for w := 0; w < e.Words; w++ {
						want |= uint64(rf.ReadWord(e.Addr+w)) << uint(w*WordBits)
					}
					if e.Width < 64 {
						want &= 1<<uint(e.Width) - 1
					}
					if got[k] != want {
						t.Errorf("%s hooked=%v at bit %d: %s ReadRange %#x, ReadWord %#x", cfg.Name, hooked, at, e.Name, got[k], want)
					}
				}
				wordBus, wordObs := rf.BusReads()-preBus, counters[1].Value()-preObs
				if int64(busReads) != rangeBus || rangeBus != wordBus || uint64(rangeBus) != rangeObs || rangeObs != wordObs ||
					rangeBus != int64(rf.Words()) {
					t.Errorf("%s hooked=%v at bit %d: ReadRange %d reads (BusReads +%d, counter +%d), ReadWord BusReads +%d, counter +%d, %d words",
						cfg.Name, hooked, at, busReads, rangeBus, rangeObs, wordBus, wordObs, rf.Words())
				}
				if !slices.Equal(logs[0], logs[1]) {
					t.Errorf("%s at bit %d: hook saw %d words through ReadRange, %d through ReadWord, or in another order",
						cfg.Name, at, len(logs[0]), len(logs[1]))
				}
				if hooked && len(logs[0]) != rf.Words() {
					t.Errorf("%s at bit %d: hook saw %d of %d words", cfg.Name, at, len(logs[0]), rf.Words())
				}
			}
		}
	}
}
