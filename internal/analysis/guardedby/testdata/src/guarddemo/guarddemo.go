// Package guarddemo is the golden suite for the guardedby analyzer: a
// miniature pool/stream hierarchy exercising every rule — straight-line
// locking, deferred unlocks over early returns, branch joins, goroutine
// and stored-closure isolation, loop conservatism, break and fallthrough
// out of switch and select cases, //trnglint:holds preconditions, dotted
// mutex paths, annotation errors, and waivers.
package guarddemo

import "sync"

type Pool struct {
	mu sync.Mutex
	//trnglint:guardedby mu
	closed bool
	//trnglint:guardedby mu
	streams []*Stream
}

type Stream struct {
	pool   *Pool
	pushMu sync.Mutex
	//trnglint:guardedby pushMu
	drained int32
	// idx is maintained by the pool: dotted path through the pool field.
	idx int //trnglint:guardedby pool.mu
}

func newPool() *Pool {
	// Composite-literal construction is naturally exempt: keys are not
	// selector expressions.
	return &Pool{closed: false, streams: nil}
}

func (p *Pool) goodStraightLine() bool {
	p.mu.Lock()
	c := p.closed
	p.mu.Unlock()
	return c
}

func (p *Pool) goodDeferEarlyReturn(fail bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fail {
		p.closed = true
		return 0
	}
	return len(p.streams)
}

func (p *Pool) badUnlocked() bool {
	return p.closed // want `closed is guarded by mu .* accessed without it provably held`
}

func (p *Pool) badAfterUnlock() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.streams = nil // want `streams is guarded by mu`
}

func (p *Pool) badOneBranchOnly(cond bool) {
	if cond {
		p.mu.Lock()
	}
	p.closed = true // want `closed is guarded by mu`
	if cond {
		p.mu.Unlock()
	}
}

func (p *Pool) goodBothBranches(cond bool) {
	if cond {
		p.mu.Lock()
	} else {
		p.mu.Lock()
	}
	p.closed = true
	p.mu.Unlock()
}

func (p *Pool) goodUnlockAndBail(cond bool) {
	p.mu.Lock()
	if cond {
		p.mu.Unlock()
		return
	}
	p.closed = true // the returning branch dropped out of the join
	p.mu.Unlock()
}

func (p *Pool) badGoroutineCapture() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		p.closed = true // want `closed is guarded by mu`
	}()
}

func (p *Pool) goodGoroutineLocksItself() {
	go func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
	}()
}

func (p *Pool) badStoredClosure() func() {
	p.mu.Lock()
	defer p.mu.Unlock()
	return func() {
		p.closed = false // want `closed is guarded by mu`
	}
}

func (p *Pool) badLoopRelock(n int) {
	p.mu.Lock()
	for i := 0; i < n; i++ {
		p.closed = true // want `closed is guarded by mu`
		p.mu.Unlock()
		p.mu.Lock()
	}
	p.mu.Unlock()
	// The walker can no longer prove mu held after a loop that released
	// it, so the tail access is a finding too:
	_ = p.closed // want `closed is guarded by mu`
}

func (p *Pool) badBreakOutOfSwitch(k int) {
	p.mu.Lock()
	switch k {
	case 1:
		p.mu.Unlock()
		break
	default:
	}
	p.closed = true // want `closed is guarded by mu`
	p.mu.Unlock()
}

func (p *Pool) badBreakOutOfSelect(ch chan int) {
	p.mu.Lock()
	select {
	case <-ch:
		p.mu.Unlock()
		break
	default:
	}
	p.closed = true // want `closed is guarded by mu`
	p.mu.Unlock()
}

func (p *Pool) badFallthrough(k int) {
	p.mu.Lock()
	switch k {
	case 1:
		p.mu.Unlock()
		fallthrough
	case 2:
		p.closed = true // want `closed is guarded by mu`
	}
	p.mu.Unlock()
}

func (p *Pool) goodBreakStillLocked(k int) {
	p.mu.Lock()
	switch k {
	case 1:
		break
	default:
		p.mu.Unlock()
		return
	}
	p.closed = true // the only path here breaks with mu held
	p.mu.Unlock()
}

// flushStaged documents its precondition: callers hold pushMu.
//
//trnglint:holds pushMu
func (s *Stream) flushStaged() {
	s.drained++ // assumed held inside the body
}

func (s *Stream) goodCaller() {
	s.pushMu.Lock()
	s.flushStaged()
	s.pushMu.Unlock()
}

func (s *Stream) badCaller() {
	s.flushStaged() // want `call to flushStaged requires pushMu held`
}

func (s *Stream) goodDottedPath() {
	s.pool.mu.Lock()
	s.idx = 3 // pool.mu and s.pool.mu are the same lock identity
	s.pool.mu.Unlock()
}

func (s *Stream) badDottedPath() {
	s.pushMu.Lock()
	s.idx = 4 // want `idx is guarded by pool.mu`
	s.pushMu.Unlock()
}

func (s *Stream) waivedAccess() int32 {
	//trnglint:allow guardedby read-only snapshot for metrics, staleness is fine
	return s.drained
}

type badAnnotations struct {
	//trnglint:guardedby nosuchmutex
	a int // want `guardedby nosuchmutex: cannot resolve`
	//trnglint:guardedby b
	b int // want `guardedby b: cannot resolve`
}
