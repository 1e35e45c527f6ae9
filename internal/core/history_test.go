package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hwblock"
	"repro/internal/trng"
)

// biasedWords returns n 64-bit words of a mildly biased source, so that
// consecutive n = 128 sequences differ in their verdicts and statistics.
func biasedWords(t *testing.T, seed int64, n int) []uint64 {
	t.Helper()
	r := bitstream.NewReader(trng.Read(trng.NewBiased(0.56, seed), 64*n))
	out := make([]uint64, n)
	for i := range out {
		w, _, err := r.ReadWord64(64)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = w
	}
	return out
}

// snapshot deep-copies a sequence report, verdicts included.
func snapshot(r *SequenceReport) SequenceReport {
	rep := *r.Report
	rep.Verdicts = slices.Clone(rep.Verdicts)
	return SequenceReport{Index: r.Index, StartBit: r.StartBit, Report: &rep}
}

// feedSequence feeds one n = 128 sequence as two words and returns its
// report.
func feedSequence(t *testing.T, m *Monitor, verify bool, w0, w1 uint64) *SequenceReport {
	t.Helper()
	feed := m.FeedWord
	if verify {
		feed = m.FeedWordVerified
	}
	if rep, err := feed(w0, 64); err != nil || rep != nil {
		t.Fatalf("first word: report %v, err %v", rep, err)
	}
	rep, err := feed(w1, 64)
	if err != nil || rep == nil {
		t.Fatalf("second word: report %v, err %v", rep, err)
	}
	return rep
}

// TestReportValidityWindow pins the KeepHistory contract: with
// KeepHistory = k, a returned *SequenceReport and its sweval.Report stay
// byte-identical until k more sequences complete, and once the ring is
// full the k-th reuses the slot, so a warmed monitor's boundaries allocate
// nothing — on the plain and on the verified feed.
func TestReportValidityWindow(t *testing.T) {
	const sequences = 40
	words := biasedWords(t, 11, 2*sequences)
	for _, verify := range []bool{false, true} {
		for _, k := range []int{1, 2, 16} {
			m := newMonitor(t, 128, hwblock.Medium, 0.01)
			m.KeepHistory = k
			var got []*SequenceReport
			var want []SequenceReport
			for j := 0; j < sequences; j++ {
				rep := feedSequence(t, m, verify, words[2*j], words[2*j+1])
				// The ring's storage is final once it holds k slots.
				if j >= 2*k && rep != got[j-k] {
					t.Fatalf("verify=%v k=%d: sequence %d did not reuse the slot of sequence %d", verify, k, j, j-k)
				}
				got, want = append(got, rep), append(want, snapshot(rep))
				for i := max(0, j-k+1); i <= j; i++ {
					if !reflect.DeepEqual(snapshot(got[i]), want[i]) {
						t.Fatalf("verify=%v k=%d: report %d changed %d sequences later", verify, k, i, j-i)
					}
				}
			}
			hist := m.History()
			if len(hist) != k {
				t.Fatalf("verify=%v k=%d: history holds %d reports", verify, k, len(hist))
			}
			for i := range hist {
				if w := want[sequences-k+i]; !reflect.DeepEqual(snapshot(&hist[i]), w) {
					t.Fatalf("verify=%v k=%d: history entry %d is sequence %d, want %d", verify, k, i, hist[i].Index, w.Index)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				feedSequence(t, m, verify, words[0], words[1])
			})
			if allocs != 0 {
				t.Errorf("verify=%v k=%d: a warmed boundary allocates %.0f times, want 0", verify, k, allocs)
			}
		}
	}
}

// TestReportKeepEverything pins KeepHistory = 0: every sequence gets a
// report the monitor never writes again, so the first is unchanged 100
// sequences later. A reference monitor that keeps the report of each
// sequence it is fed relies on this.
func TestReportKeepEverything(t *testing.T) {
	words := biasedWords(t, 12, 2*101)
	m := newMonitor(t, 128, hwblock.Medium, 0.01)
	first := feedSequence(t, m, false, words[0], words[1])
	want := snapshot(first)
	for j := 1; j <= 100; j++ {
		feedSequence(t, m, j%2 == 0, words[2*j], words[2*j+1])
	}
	if !reflect.DeepEqual(snapshot(first), want) {
		t.Fatal("the first report changed as later sequences completed")
	}
	if h := m.History(); len(h) != 101 || !reflect.DeepEqual(snapshot(&h[0]), want) {
		t.Fatalf("history holds %d reports, first %+v", len(h), h[0])
	}
}

// TestTakeHistoryHandsOver takes a wrapped ring's reports and then keeps
// the monitor busy, with and without a Reset in between: the taken reports
// come out oldest first and never change again.
func TestTakeHistoryHandsOver(t *testing.T) {
	words := biasedWords(t, 13, 2*30)
	for _, reset := range []bool{false, true} {
		m := newMonitor(t, 128, hwblock.Medium, 0.01)
		m.KeepHistory = 3
		var want []SequenceReport
		for j := 0; j < 7; j++ {
			want = append(want, snapshot(feedSequence(t, m, false, words[2*j], words[2*j+1])))
		}
		taken := m.TakeHistory()
		if len(m.History()) != 0 {
			t.Fatalf("reset=%v: the monitor still holds %d reports", reset, len(m.History()))
		}
		if reset {
			m.Reset()
		}
		for j := 7; j < 30; j++ {
			feedSequence(t, m, j%3 == 0, words[2*j], words[2*j+1])
		}
		if len(taken) != 3 {
			t.Fatalf("reset=%v: took %d reports, want 3", reset, len(taken))
		}
		for i := range taken {
			if !reflect.DeepEqual(snapshot(&taken[i]), want[4+i]) {
				t.Fatalf("reset=%v: taken report %d is sequence %d or was rewritten, want sequence %d",
					reset, i, taken[i].Index, 4+i)
			}
		}
	}
}

// TestKeepHistoryChange shrinks, grows and lifts the bound mid-stream: the
// history always holds the newest reports, oldest first, each unchanged
// since it was returned.
func TestKeepHistoryChange(t *testing.T) {
	words := biasedWords(t, 14, 2*40)
	m := newMonitor(t, 128, hwblock.Medium, 0.01)
	var want []SequenceReport
	j := 0
	feed := func(n int) {
		for ; n > 0; n-- {
			want = append(want, snapshot(feedSequence(t, m, false, words[2*j], words[2*j+1])))
			j++
		}
	}
	check := func(keep int) {
		t.Helper()
		h := m.History()
		if len(h) != keep {
			t.Fatalf("after %d sequences: history holds %d reports, want %d", j, len(h), keep)
		}
		for i := range h {
			if !reflect.DeepEqual(snapshot(&h[i]), want[j-keep+i]) {
				t.Fatalf("after %d sequences: history entry %d is sequence %d, want %d", j, i, h[i].Index, j-keep+i)
			}
		}
	}
	m.KeepHistory = 4
	feed(10)
	check(4)
	m.KeepHistory = 2
	feed(1)
	check(2)
	m.KeepHistory = 5
	feed(7)
	check(5)
	m.KeepHistory = 0
	feed(3)
	check(8)
}

// TestVerifiedMismatchKeepsHistory corrupts the second readout pass of a
// verified sequence on a full ring: the mismatch must commit nothing and
// leave every retained report — the one the sequence would have evicted
// included — as it was.
func TestVerifiedMismatchKeepsHistory(t *testing.T) {
	const k = 4
	words := biasedWords(t, 15, 2*(k+3))
	m := newMonitor(t, 128, hwblock.Medium, 0.01)
	m.KeepHistory = k
	rf := m.Block().RegFile()
	perPass, corruptAfter := 0, -1
	rf.SetReadFault(func(_ int, word uint16) uint16 {
		perPass++
		if corruptAfter >= 0 && perPass > corruptAfter {
			return word ^ 0x5
		}
		return word
	})
	for j := 0; j < k+1; j++ {
		perPass = 0
		feedSequence(t, m, true, words[2*j], words[2*j+1])
	}
	corruptAfter, perPass = perPass/2, 0 // the second of the two passes
	var want []SequenceReport
	for _, r := range m.History() {
		want = append(want, snapshot(&r))
	}
	if _, err := m.FeedWordVerified(words[2*k+2], 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FeedWordVerified(words[2*k+3], 64); !errors.Is(err, ErrReadoutMismatch) {
		t.Fatalf("corrupted second pass: err = %v, want ErrReadoutMismatch", err)
	}
	h := m.History()
	if len(h) != len(want) {
		t.Fatalf("history holds %d reports after the mismatch, want %d", len(h), len(want))
	}
	for i := range h {
		if !reflect.DeepEqual(snapshot(&h[i]), want[i]) {
			t.Fatalf("history entry %d changed on a mismatch", i)
		}
	}
}
