// Package atomicdemo is the golden suite for the atomicmix analyzer:
// typed-atomic fields (rule 1) and plain/atomic mixing on ordinary fields
// (rule 2). Copies of atomic-bearing structs are go vet -copylocks's
// finding; the last section pins that atomicmix does not report them too.
package atomicdemo

import "sync/atomic"

type Stream struct {
	detached atomic.Bool
	offered  atomic.Int64
	// hits is accessed via atomic.AddInt64 in bump: an atomic location.
	hits int64
	// plainCount is never touched atomically: plain access is fine.
	plainCount int64
}

// ---- rule 1: atomic.* typed fields ----

func (s *Stream) goodMethodUse() bool {
	s.offered.Add(1)
	return s.detached.Load()
}

func goodAddressTake(s *Stream) *atomic.Int64 {
	return &s.offered // pointer hand-off keeps the protocol intact
}

func (s *Stream) badValueCopy() atomic.Bool {
	return s.detached // want `detached has atomic type atomic.Bool`
}

func (s *Stream) badOverwrite() {
	s.detached = atomic.Bool{} // want `detached has atomic type atomic.Bool`
}

func (s *Stream) badCopyIntoLocal() {
	d := s.offered // want `offered has atomic type atomic.Int64`
	_ = d.Load()
}

// ---- rule 2: plain access of an atomically-accessed field ----

func (s *Stream) bump() {
	atomic.AddInt64(&s.hits, 1)
}

func (s *Stream) goodAtomicRead() int64 {
	return atomic.LoadInt64(&s.hits)
}

func (s *Stream) badPlainRead() int64 {
	return s.hits // want `hits is accessed via sync/atomic elsewhere`
}

func (s *Stream) badPlainWrite() {
	s.hits = 0 // want `hits is accessed via sync/atomic elsewhere`
}

func (s *Stream) goodPlainField() int64 {
	s.plainCount++ // never atomic anywhere: no mixing
	return s.plainCount
}

func (s *Stream) waivedReset() {
	//trnglint:allow atomicmix pool recycle: no concurrent holders during reset
	s.hits = 0
}

// localCounterIdiom shows why locals are exempt: add-then-read-after-join
// is correct once the goroutines are joined.
func localCounterIdiom() int64 {
	var next int64
	done := make(chan struct{})
	go func() {
		atomic.AddInt64(&next, 1)
		close(done)
	}()
	<-done
	return next
}

// ---- copies of atomic-bearing structs: vet reports these, atomicmix does not ----

type wrapper struct {
	inner Stream // nested: wrapper transitively contains atomics
}

func badDerefCopy(p *Stream) {
	v := *p
	v.plainCount++
}

func badStructAssign(a Stream) {
	b := a
	b.plainCount++
}

func badNestedCopy(w *wrapper) wrapper {
	return *w
}

func sinkAny(v any) { _ = v }

func badInterfaceBoxing(p *Stream) {
	// The parameter is interface{}; vet checks the argument and reports it.
	sinkAny(*p)
}

func goodPointerUses(p *Stream, w *wrapper) {
	sinkAny(p) // boxing the POINTER is fine
	q := p
	_ = q
	_ = &w.inner
}

func goodFreshValue() Stream {
	// Composite literals are construction, not copies.
	s := &Stream{plainCount: 1}
	s.plainCount++
	return Stream{}
}
