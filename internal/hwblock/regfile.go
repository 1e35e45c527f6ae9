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

	// The live value: *ref when ref is set, the read callback's result
	// otherwise.
	read func() uint64
	ref  *uint64
}

// value samples the entry's live hardware value.
func (e *Entry) value() uint64 {
	if e.ref != nil {
		return *e.ref
	}
	return e.read()
}

// RegFile is the memory-mapped output interface: a big multiplexer over all
// counter values, addressed by word.
type RegFile struct {
	entries []Entry
	byName  map[string]int
	words   int
	byAddr  []int32 // entry index of each word address

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
	rf.add(Entry{Name: name, TestID: testID, Width: width, read: read})
}

// addRef is Add for a value the hardware holds as is, in a primitive's
// storage (see hwsim's Ref methods): reads load *ref, without a callback.
func (rf *RegFile) addRef(name string, testID, width int, ref *uint64) {
	rf.add(Entry{Name: name, TestID: testID, Width: width, ref: ref})
}

// add assigns e its address range and word count and appends it.
func (rf *RegFile) add(e Entry) {
	if _, dup := rf.byName[e.Name]; dup {
		panic(fmt.Sprintf("hwblock: duplicate register %q", e.Name))
	}
	e.Addr = rf.words
	e.Words = (e.Width + WordBits - 1) / WordBits
	for range e.Words {
		rf.byAddr = append(rf.byAddr, int32(len(rf.entries)))
	}
	rf.byName[e.Name] = len(rf.entries)
	rf.entries = append(rf.entries, e)
	rf.words += e.Words
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
	if addr >= 0 && addr < rf.words {
		e := &rf.entries[rf.byAddr[addr]]
		word = uint16(e.value() >> uint((addr-e.Addr)*WordBits))
	}
	if rf.readFault != nil {
		word = rf.readFault(addr, word)
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
// that resolve names once and then read with ReadRange.
func (rf *RegFile) Index(name string) (int, bool) {
	i, ok := rf.byName[name]
	return i, ok
}

// ReadValue reads a full named value by issuing one bus read per word and
// reassembling (a one-entry ReadRange), returning the value and the number
// of bus reads performed (the quantity the paper's READ instruction count
// measures).
func (rf *RegFile) ReadValue(name string) (value uint64, busReads int, err error) {
	i, ok := rf.byName[name]
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
// once. It panics when the range does not lie within Entries.
func (rf *RegFile) ReadRange(first int, dst []uint64) (busReads int) {
	entries := rf.entries[first : first+len(dst) : len(rf.entries)]
	if rf.prepare != nil {
		rf.prepare()
	}
	for k := range entries {
		e := &entries[k]
		v := e.value()
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
