// Package resetdemo exercises the resetcheck analyzer against the
// monitor-reuse contract.
package resetdemo

import "monlib"

func secondSource(m *monlib.Monitor, a, b *monlib.Source) {
	_ = m.Watch(a, 1)
	_ = m.Watch(a, 1) // continuation of the same stream: allowed
	_ = m.Watch(b, 1) // want `without Reset`
}

func secondSourceReset(m *monlib.Monitor, a, b *monlib.Source) {
	_ = m.Watch(a, 1)
	m.Reset()
	_ = m.Watch(b, 1) // reset in between: allowed
}

func loopFresh(m *monlib.Monitor) {
	for i := 0; i < 4; i++ {
		_ = m.Watch(monlib.NewSource(i), 1) // want `fresh source every loop iteration`
	}
}

func loopFreshReset(m *monlib.Monitor) {
	for i := 0; i < 4; i++ {
		m.Reset()
		_ = m.Watch(monlib.NewSource(i), 1) // reset per trial: the runner idiom
	}
}

func loopContinuous(m *monlib.Monitor, s *monlib.Source) {
	for i := 0; i < 4; i++ {
		_ = m.Watch(s, 1) // always-on monitoring of one stream: allowed
	}
}

func escapes(m *monlib.Monitor, a, b *monlib.Source) {
	_ = m.Watch(a, 1)
	handOff(m)
	_ = m.Watch(b, 1) // m escaped: conservatively allowed
}

func handOff(m *monlib.Monitor) { m.Reset() }

func fieldMonitor() {
	var box struct{ mon monlib.Monitor }
	a, b := monlib.NewSource(1), monlib.NewSource(2)
	_ = box.mon.Watch(a, 1)
	_ = box.mon.Watch(b, 1) // want `without Reset`
}

func waived(m *monlib.Monitor, a, b *monlib.Source) {
	_ = m.Watch(a, 1)
	//trnglint:allow resetcheck the second stream deliberately continues the first trial's history
	_ = m.Watch(b, 1)
}

func nestedGoLoop(m *monlib.Monitor, done chan<- bool) {
	go func() {
		for i := 0; i < 4; i++ {
			_ = m.Watch(monlib.NewSource(i), 1) // want `Watch on monitor "m" builds a fresh source`
		}
		done <- true
	}()
}

func literalSecondSource(m *monlib.Monitor, a, b *monlib.Source) {
	f := func() {
		_ = m.Watch(a, 1)
		_ = m.Watch(b, 1) // want `without Reset`
	}
	f()
}

func branchArms(m *monlib.Monitor, a, b *monlib.Source, c bool) {
	if c {
		_ = m.Watch(a, 1)
	} else {
		_ = m.Watch(b, 1) // the other arm: a different path, allowed
	}
}

func resetOnOnePath(m *monlib.Monitor, a, b *monlib.Source, c bool) {
	_ = m.Watch(a, 1)
	if c {
		m.Reset()
	}
	_ = m.Watch(b, 1) // want `without Reset`
}

func escapesByAddress(a, b *monlib.Source) {
	var m monlib.Monitor
	_ = m.Watch(a, 1)
	handOff(&m)
	_ = m.Watch(b, 1) // &m escaped: conservatively allowed
}

func watchInCondition(m *monlib.Monitor, a, b *monlib.Source) {
	if m.Watch(a, 1) != nil {
		return
	}
	_ = m.Watch(b, 1) // want `without Reset`
}

func withGoto(m *monlib.Monitor, a, b *monlib.Source) {
	_ = m.Watch(a, 1)
retry:
	if m.Watch(b, 1) != nil { // goto: the function is not followed, so not reported
		goto retry
	}
}

func escapesToGoroutine(m *monlib.Monitor, a, b *monlib.Source) {
	_ = m.Watch(a, 1)
	go handOff(m)
	_ = m.Watch(b, 1) // m escaped to the goroutine: conservatively allowed
}

func breakCarriesWatch(m *monlib.Monitor, a, b *monlib.Source, c bool) {
	for {
		_ = m.Watch(a, 1) // want `without Reset`
		if c {
			break
		}
		_ = m.Watch(b, 1) // want `without Reset`
	}
	_ = m.Watch(b, 1) // want `without Reset`
}

func deferredReset(m *monlib.Monitor, a, b *monlib.Source) {
	_ = m.Watch(a, 1)
	defer m.Reset()
	_ = m.Watch(b, 1) // want `without Reset`
}

func literalStartsEmpty(m *monlib.Monitor, a, b *monlib.Source) {
	_ = m.Watch(a, 1)
	func() {
		_ = m.Watch(b, 1) // a literal starts with nothing watched: not reported
	}()
}
