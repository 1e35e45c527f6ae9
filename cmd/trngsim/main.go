// Command trngsim generates TRNG bit streams with configurable defect and
// attack models, for feeding into otftest or external test suites.
//
// Usage:
//
//	trngsim -source ringosc -bits 65536 > healthy.txt
//	trngsim -source ringosc -bits 1048576 -attack lock -onset 500000 > attacked.txt
//	trngsim -source biased -p 0.52 -bits 65536 -raw > biased.bin
//
// With -metrics-addr the generator serves its observability endpoint while
// running (see package repro/internal/obs), so long generations can be
// watched live:
//
//	trngsim -source ringosc -bits 100000000 -metrics-addr :9601 > big.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/trng"
)

func main() {
	source := flag.String("source", "ideal", "simulated source: "+trng.SimulatedNames())
	p := flag.Float64("p", 0.6, "P(bit=1) for biased, stickiness for markov, end-of-life P(bit=1) for drift")
	bits := flag.Int("bits", 65536, "number of bits to emit")
	seed := flag.Int64("seed", 1, "seed")
	attack := flag.String("attack", "", "optional attack: lock (oscillator lock-in), cut (wire cut)")
	onset := flag.Int("onset", 0, "bit index where the attack begins")
	raw := flag.Bool("raw", false, "emit packed bytes instead of ASCII")
	width := flag.Int("width", 64, "ASCII line width (0 = single line)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /trace on this address while generating")
	flag.Parse()

	src, err := trng.NewSimulated(*source, *p, *seed)
	if err != nil {
		fatal(err)
	}
	if *attack != "" {
		var bad trng.Source
		switch strings.ToLower(*attack) {
		case "lock":
			bad = trng.NewRingOscillator(100.37, 0.001, *seed+1)
		case "cut":
			bad = trng.NewStuckAt(0)
		default:
			fatal(fmt.Errorf("unknown attack %q", *attack))
		}
		src = trng.NewSwitchAt(src, bad, *onset)
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		_, addr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trngsim: metrics on http://%s/metrics\n", addr)
		reg.Gauge("trngsim_run_info", "constant 1, labelled with the generation parameters",
			"source", src.Name(), "attack", *attack).Set(1)
		src = &meteredSource{
			inner: src,
			emitted: reg.Counter("trngsim_bits_emitted_total",
				"bits drawn from the simulated source so far"),
		}
	}

	seq := trng.Read(src, *bits)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if *raw {
		if _, err := out.Write(seq.PackBytes()); err != nil {
			fatal(err)
		}
		return
	}
	if err := seq.WriteASCII(out, *width); err != nil {
		fatal(err)
	}
	fmt.Fprintln(out)
}

// meteredSource counts delivered bits, flushing to the shared counter in
// chunks so the per-bit cost stays one local increment.
type meteredSource struct {
	inner   trng.Source
	emitted *obs.Counter
	pending uint64
}

func (m *meteredSource) Name() string { return m.inner.Name() }

func (m *meteredSource) ReadBit() (byte, error) {
	b, err := m.inner.ReadBit()
	if err == nil {
		m.pending++
		if m.pending == 1024 {
			m.emitted.Add(m.pending)
			m.pending = 0
		}
	}
	return b, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trngsim:", err)
	os.Exit(2)
}
