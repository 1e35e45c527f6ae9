package hwblock

import (
	"fmt"

	"repro/internal/obs"
)

// AddressBits is the width of the register-file address, fixed by the
// paper's memory-mapped interface ("a 7-bit address is used as a select
// signal").
const AddressBits = 7

// WordBits is the data-bus width; the software platform is a 16-bit
// architecture.
const WordBits = 16

// RegFile is the memory-mapped output interface: a big multiplexer over all
// counter values, addressed by word. The address decode is the design's
// RegMap, shared by all its blocks; the file holds only the live value
// behind each entry and the hooks of its own bus.
type RegFile struct {
	m    *RegMap
	refs []*uint64        // the storage of each entry's value; nil for the walk triple
	walk [3]func() uint64 // S_MAX, S_MIN, S_FINAL, sampled through the walk engine

	prepare   func()
	readFault func(addr int, word uint16) uint16
	busReads  int64
	obsReads  *obs.Counter // nil-safe; cached by SetObs
}

// value samples entry i's live hardware value. ReadRange calls it once
// per entry, so it is kept within the inlining budget.
func (rf *RegFile) value(i int) uint64 {
	if r := rf.refs[i]; r != nil {
		return *r
	}
	return rf.walk[i-walkFirst]()
}

// Words reports the total number of addressable words.
func (rf *RegFile) Words() int { return rf.m.words }

// SetPrepare installs a hook invoked once per read call (a ReadWord, or
// a ReadValue or ReadRange over any number of words), ahead of the value
// sampling. The fast ingest path uses it to publish its word-level state
// into the structural primitives lazily, so a read issued at any bit
// boundary — even mid-sequence — observes exactly the image the bit-serial
// hardware would present. Nothing clocks the block during a read call, so
// one preparation serves all of its bus words. A nil hook disables
// preparation.
func (rf *RegFile) SetPrepare(f func()) { rf.prepare = f }

// SetReadFault installs a hook through which every bus word passes before
// reaching the caller: each ReadWord result, and each word of every entry
// a ReadValue or ReadRange reads. It is the fault-injection seam modelling
// a corrupted bus transaction (the probing/tampering surface the paper's
// distributed-verdict design defends against). The hook sees the bus
// address and the true word and returns the word the "microcontroller"
// observes. A nil hook restores fault-free transmission.
func (rf *RegFile) SetReadFault(f func(addr int, word uint16) uint16) { rf.readFault = f }

// BusReads reports the total number of 16-bit bus transactions performed
// over the file's lifetime, one per word read by any read call (it is not
// cleared by a block reset).
func (rf *RegFile) BusReads() int64 { return rf.busReads }

// SetObs attaches an observability registry; every bus transaction is
// then counted in trng_regfile_bus_reads_total. A nil registry detaches
// the counter. The count mirrors BusReads but is visible on the live
// exposition endpoint while a run is in flight.
func (rf *RegFile) SetObs(r *obs.Registry) {
	if r == nil {
		rf.obsReads = nil
		return
	}
	rf.obsReads = r.Counter("trng_regfile_bus_reads_total",
		"16-bit bus transactions served by the memory-mapped register file")
}

// ReadWord returns the 16-bit word at the given address — the raw bus
// transaction the microcontroller performs. Reading an unmapped address
// returns 0, like a real bus with a default mux leg.
func (rf *RegFile) ReadWord(addr int) uint16 {
	if rf.prepare != nil {
		rf.prepare()
	}
	rf.busReads++
	rf.obsReads.Inc()
	var word uint16
	if addr >= 0 && addr < rf.m.words {
		i := int(rf.m.byAddr[addr])
		word = uint16(rf.value(i) >> uint((addr-rf.m.entries[i].Addr)*WordBits))
	}
	if rf.readFault != nil {
		word = rf.readFault(addr, word)
	}
	return word
}

// ReadValue reads a full named value by issuing one bus read per word and
// reassembling (a one-entry ReadRange), returning the value and the number
// of bus reads performed (the quantity the paper's READ instruction count
// measures).
func (rf *RegFile) ReadValue(name string) (value uint64, busReads int, err error) {
	i, ok := rf.m.byName[name]
	if !ok {
		return 0, 0, fmt.Errorf("hwblock: no register named %q", name)
	}
	var v [1]uint64
	busReads = rf.ReadRange(i, v[:])
	return v[0], busReads, nil
}

// ReadRange reads the consecutive entries first, first+1, … into dst, one
// value per element, and returns the number of bus reads issued: the
// entries' word counts, which is what the READ category meters. The bus
// transactions are those of reading every word of every entry in address
// order: each word passes through the read-fault hook at its own address,
// and BusReads and trng_regfile_bus_reads_total advance by one per word.
// The call samples each entry's live value once and runs the prepare hook
// once. It panics when the range does not lie within the map's entries.
func (rf *RegFile) ReadRange(first int, dst []uint64) (busReads int) {
	entries := rf.m.entries[first : first+len(dst) : len(rf.m.entries)]
	if rf.prepare != nil {
		rf.prepare()
	}
	for k := range entries {
		e := &entries[k]
		v := rf.value(first + k)
		if rf.readFault != nil {
			v = rf.faultWords(e, v)
		}
		if e.Width < 64 {
			v &= 1<<uint(e.Width) - 1
		}
		dst[k] = v
		busReads += e.Words
	}
	rf.busReads += int64(busReads)
	rf.obsReads.Add(uint64(busReads))
	return busReads
}

// faultWords passes each bus word of v, the live value of entry e, through
// the read-fault hook at its real address, in word order, and reassembles
// the words the hook returns.
func (rf *RegFile) faultWords(e *Entry, v uint64) (value uint64) {
	for w := 0; w < e.Words; w++ {
		word := rf.readFault(e.Addr+w, uint16(v>>uint(w*WordBits)))
		//trnglint:widen word-by-word readout reassembly: every operand is one 16-bit bus word, shifted to its word lane; interval [0, +inf] (the lane shift is loop-carried)
		value |= uint64(word) << uint(w*WordBits)
	}
	return value
}

// Image dumps the full register file as one bus read per word — the
// complete memory-mapped state the microcontroller could observe. The
// differential equivalence suite compares images between the fast and the
// cycle-accurate ingest paths.
func (rf *RegFile) Image() []uint16 {
	out := make([]uint16, rf.m.words)
	for addr := range out {
		out[addr] = rf.ReadWord(addr)
	}
	return out
}
