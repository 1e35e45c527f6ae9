package hwblock

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// AddressBits is the width of the register-file address, fixed by the
// paper's memory-mapped interface ("a 7-bit address is used as a select
// signal").
const AddressBits = 7

// WordBits is the data-bus width; the software platform is a 16-bit
// architecture.
const WordBits = 16

// Entry is one named value exposed through the register file. Values wider
// than 16 bits occupy consecutive word addresses, least significant word
// first.
type Entry struct {
	// Name is the value's symbolic name (e.g. "S_MAX", "SERIAL_NU4_0011").
	Name string
	// TestID is the SP800-22 test the value belongs to (0 for
	// infrastructure such as the global bit counter).
	TestID int
	// Addr is the first word address.
	Addr int
	// Width is the value width in bits.
	Width int
	// Words is the number of 16-bit words the value occupies.
	Words int

	read func() uint64
}

// RegFile is the memory-mapped output interface: a big multiplexer over all
// counter values, addressed by word.
type RegFile struct {
	entries []Entry
	byName  map[string]int
	words   int

	prepare   func()
	readFault func(addr int, word uint16) uint16
	busReads  int64
	obsReads  *obs.Counter // nil-safe; cached by SetObs
}

// NewRegFile returns an empty register file.
func NewRegFile() *RegFile {
	return &RegFile{byName: make(map[string]int)}
}

// Add exposes a value through the register file, assigning it the next free
// word-aligned address range. The read callback samples the live hardware
// value.
func (rf *RegFile) Add(name string, testID, width int, read func() uint64) {
	if _, dup := rf.byName[name]; dup {
		panic(fmt.Sprintf("hwblock: duplicate register %q", name))
	}
	words := (width + WordBits - 1) / WordBits
	e := Entry{Name: name, TestID: testID, Addr: rf.words, Width: width, Words: words, read: read}
	rf.byName[name] = len(rf.entries)
	rf.entries = append(rf.entries, e)
	rf.words += words
}

// Words reports the total number of addressable words.
func (rf *RegFile) Words() int { return rf.words }

// CheckAddressSpace verifies the map fits the 7-bit address space.
func (rf *RegFile) CheckAddressSpace() error {
	if rf.words > 1<<AddressBits {
		return fmt.Errorf("hwblock: register file needs %d words, exceeds the %d-word (7-bit) address space",
			rf.words, 1<<AddressBits)
	}
	return nil
}

// SetPrepare installs a hook invoked before every bus transaction, ahead of
// the value sampling. The fast ingest path uses it to publish its word-level
// state into the structural primitives lazily, so a read issued at any bit
// boundary — even mid-sequence — observes exactly the image the bit-serial
// hardware would present. A nil hook disables preparation.
func (rf *RegFile) SetPrepare(f func()) { rf.prepare = f }

// SetReadFault installs a hook through which every ReadWord result passes
// before reaching the caller — the fault-injection seam modelling a
// corrupted bus transaction (the probing/tampering surface the paper's
// distributed-verdict design defends against). The hook sees the bus
// address and the true word and returns the word the "microcontroller"
// observes. A nil hook restores fault-free transmission.
func (rf *RegFile) SetReadFault(f func(addr int, word uint16) uint16) { rf.readFault = f }

// BusReads reports the total number of ReadWord transactions performed
// over the file's lifetime (it is not cleared by a block reset).
func (rf *RegFile) BusReads() int64 { return rf.busReads }

// SetObs attaches an observability registry; every ReadWord transaction is
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
	if addr >= 0 && addr < rf.words {
		// Binary search over entries by address.
		i := sort.Search(len(rf.entries), func(i int) bool {
			return rf.entries[i].Addr+rf.entries[i].Words > addr
		})
		e := &rf.entries[i]
		return rf.busWord(e, addr-e.Addr)
	}
	rf.transact()
	if rf.readFault != nil {
		return rf.readFault(addr, 0)
	}
	return 0
}

// transact accounts one bus transaction: the prepare hook runs ahead of
// the value sampling, then the lifetime and exposition counters advance.
func (rf *RegFile) transact() {
	if rf.prepare != nil {
		rf.prepare()
	}
	rf.busReads++
	rf.obsReads.Inc()
}

// busWord performs the bus transaction for word w of entry e, passing the
// word through the read-fault hook at its real address.
func (rf *RegFile) busWord(e *Entry, w int) uint16 {
	rf.transact()
	word := uint16(e.read() >> uint(w*WordBits))
	if rf.readFault != nil {
		word = rf.readFault(e.Addr+w, word)
	}
	return word
}

// Lookup finds an entry by name.
func (rf *RegFile) Lookup(name string) (Entry, bool) {
	i, ok := rf.byName[name]
	if !ok {
		return Entry{}, false
	}
	return rf.entries[i], true
}

// Index returns the position of the named entry in Entries, for callers
// that resolve names once and then read with ReadIndex.
func (rf *RegFile) Index(name string) (int, bool) {
	i, ok := rf.byName[name]
	return i, ok
}

// ReadValue reads a full named value by issuing one bus read per word and
// reassembling, returning the value and the number of bus reads performed
// (the quantity the paper's READ instruction count measures).
func (rf *RegFile) ReadValue(name string) (value uint64, busReads int, err error) {
	i, ok := rf.byName[name]
	if !ok {
		return 0, 0, fmt.Errorf("hwblock: no register named %q", name)
	}
	value, busReads = rf.ReadIndex(i)
	return value, busReads, nil
}

// ReadIndex is ReadValue for the entry at position i of Entries: one bus
// read per word, each through the read-fault hook at its own address, and
// the returned count is what the READ category meters. It panics when i is
// out of range.
func (rf *RegFile) ReadIndex(i int) (value uint64, busReads int) {
	e := &rf.entries[i]
	for w := 0; w < e.Words; w++ {
		//trnglint:widen word-by-word readout reassembly: every operand is one 16-bit bus word, shifted to its word lane; interval [0, +inf] (the lane shift is loop-carried)
		value |= uint64(rf.busWord(e, w)) << uint(w*WordBits)
	}
	if e.Width < 64 {
		value &= 1<<uint(e.Width) - 1
	}
	return value, e.Words
}

// Image dumps the full register file as one bus read per word — the
// complete memory-mapped state the microcontroller could observe. The
// differential equivalence suite compares images between the fast and the
// cycle-accurate ingest paths.
func (rf *RegFile) Image() []uint16 {
	out := make([]uint16, rf.words)
	for addr := range out {
		out[addr] = rf.ReadWord(addr)
	}
	return out
}

// Entries returns all entries in address order.
func (rf *RegFile) Entries() []Entry { return rf.entries }

// EntriesForTest returns the entries belonging to one test.
func (rf *RegFile) EntriesForTest(testID int) []Entry {
	var out []Entry
	for _, e := range rf.entries {
		if e.TestID == testID {
			out = append(out, e)
		}
	}
	return out
}
