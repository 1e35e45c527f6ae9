// Quickstart: monitor a healthy TRNG with the 65536-bit medium design and
// print the per-sequence verdicts — the minimal end-to-end use of the
// platform.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// One of the paper's eight design points: n = 65536, medium feature
	// level (tests 1, 2, 3, 4, 7, 13).
	design, err := repro.NewDesign(65536, repro.Medium)
	if err != nil {
		log.Fatal(err)
	}

	// A monitor at the NIST-recommended level of significance. The
	// hardware half runs continuously; the software half checks the
	// counters whenever a sequence completes.
	monitor, err := repro.NewMonitor(design, repro.DefaultAlpha)
	if err != nil {
		log.Fatal(err)
	}
	// Meter the software pass, so each report carries its Table III
	// instruction count.
	monitor.Metered = true

	// A healthy elementary ring-oscillator TRNG model.
	source := repro.NewRingOscillatorSource(100.37, 1.0, 43)

	reports, err := monitor.Watch(source, 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		status := "PASS"
		if !r.Report.Pass() {
			status = fmt.Sprintf("FAIL %v", r.Report.Failed())
		}
		fmt.Printf("sequence %d: %s (software cost: %d instructions)\n",
			r.Index, status, r.Report.Cost.Total())
	}
	fmt.Printf("monitored %d bits through design %s\n", monitor.BitsSeen(), design.Name)
}
