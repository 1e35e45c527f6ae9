package main

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hwblock"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/trng"
)

const (
	// tenants is the fleet population of every workload: one full lane
	// group on the single shard.
	tenants = 64
	// distinct is how many different sequences each tenant cycles through,
	// so the fleet never sees one sequence repeated back to back while the
	// inputs and their references stay small.
	distinct = 4
	// alpha is cmd/trngd's default level of significance.
	alpha = 0.01
	// streamBias is P(1) of the four biased tenants of the streaming
	// workloads: at n=65536 it fails the frequency test every sequence, so
	// both verdicts occur.
	streamBias = 0.52

	// Churn shape, synthetic: each slot registers, pushes genWords words
	// (64.5 n=128 sequences) one word per step, and detaches. The fault
	// mix borrows cmd/trngd's default fractions. Slots below faultySlots
	// push word at a time with transient faults at transientRate per
	// word; every fourth of them is a stormer that trips its breaker
	// mid-generation; the next biasedSlots stream biased bits.
	genWords      = 129
	faultySlots   = tenants / 8
	biasedSlots   = tenants / 16
	churnBias     = 0.75
	transientRate = 0.05
	stormAt       = genWords / 2
)

// errHard is the injected hard source fault of the churn stormers.
var errHard = errors.New("trngbench: injected hard source fault")

// workload is one traffic shape driven through the fleet.
type workload struct {
	name string
	// why records what the workload exercises and why it was chosen; it
	// is repeated verbatim in BENCHMARK.json.
	why     string
	n       int
	variant hwblock.Variant
	ingest  string // "sliced" or "serial"
	online  bool
	// burst is how many words a tenant pushes per turn (one PushWords
	// call); 0 selects the churn shape.
	burst int
	// sens is how strongly the workload's wall time follows the
	// yardstick's on a busy host: it grows as the yardstick's time to this
	// power (refkernel.go). Fitted per workload from runs on a busy and a
	// calm host (bench/README.md, "Noise").
	sens float64
}

var workloads = []workload{
	{
		name: "sliced-light", n: 65536, variant: hwblock.Light, ingest: "sliced", burst: 64, sens: 0.7,
		why: "headline path: n65536-light bit-sliced, 64-word turns; the fast hwslice engine and staging do the work, no residual engines, no tracker",
	},
	{
		name: "sliced-light-online", n: 65536, variant: hwblock.Light, ingest: "sliced", online: true, burst: 64, sens: 0.55,
		why: "sliced-light inputs with the online tracker on; its difference from sliced-light is the price of Tracker.Push per lane-word",
	},
	{
		name: "serial-light", n: 65536, variant: hwblock.Light, ingest: "serial", burst: 64, sens: 0.75,
		why: "sliced-light traffic on serial ingest: bypasses hwslice (predicted unchanged by hwslice work); per-word queue hop and hwfast ingest dominate",
	},
	{
		name: "sliced-high-burst", n: 65536, variant: hwblock.High, ingest: "sliced", burst: 512, sens: 1,
		why: "n65536-high with 512-word bursts per turn: residual template/serial engines per lane and lane-group formation under bursty producers",
	},
	{
		name: "churn-n128", n: 128, variant: hwblock.Medium, ingest: "sliced", sens: 0.8,
		why: "n128-medium churn of 64.5-sequence generations with faulting and storming tenants: generic hwslice engine, hand-back and sweval every 128 bits, control plane",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// design returns the monitored testing-block design.
func (w workload) design() (hwblock.Config, error) {
	return hwblock.NewConfig(w.n, w.variant)
}

// config maps the workload onto the fleet configuration: one shard, the
// Block policy, defaults everywhere else. It is the only place a
// workload's ingest and online fields reach fleet.Config.
func (w workload) config(reg *obs.Registry) (fleet.Config, error) {
	design, err := w.design()
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.Config{
		Design:    design,
		Alpha:     alpha,
		Shards:    1,
		Policy:    fleet.Block,
		BitSliced: w.ingest == "sliced",
		Obs:       reg,
	}
	if w.online {
		cfg.Online = &online.Config{}
	}
	return cfg, nil
}

// sourceSeed derives the seed of one tenant's p-th input from the run seed.
func sourceSeed(seed int64, tenant, p int) int64 {
	return seed*1_000_003 + int64(tenant)*7_919 + int64(p)
}

// readWords packs n 64-bit words from src, bit i of a word being the i-th
// bit read.
func readWords(src trng.Source, n int) ([]uint64, error) {
	ws := make([]uint64, n)
	for i := range ws {
		for b := 0; b < 64; b++ {
			bit, err := src.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("%s source: %w", src.Name(), err)
			}
			ws[i] |= uint64(bit&1) << uint(b)
		}
	}
	return ws, nil
}

// genStream pre-generates the streaming workloads' inputs:
// words[t][p] is tenant t's p-th sequence of n/64 words. One tenant in
// sixteen (4 of 64) is biased.
func genStream(seed int64, n int) ([][][]uint64, error) {
	words := make([][][]uint64, tenants)
	for t := range words {
		words[t] = make([][]uint64, distinct)
		for p := range words[t] {
			s := sourceSeed(seed, t, p)
			var src trng.Source = trng.NewIdeal(s)
			if t%16 == 15 {
				src = trng.NewBiased(streamBias, s)
			}
			ws, err := readWords(src, n/64)
			if err != nil {
				return nil, err
			}
			words[t][p] = ws
		}
	}
	return words, nil
}

// program is one churn generation's operations, in push order, split into
// genWords steps: step i is ops[steps[i]:steps[i+1]], one data word plus
// whatever fault events follow it.
type program struct {
	ops   []fleet.Op
	steps []int
	words float64 // 64-bit words of data pushed (storm words count half)
	data  []uint64
}

// genChurn pre-generates every slot's distinct generation programs.
func genChurn(seed int64) ([][]program, error) {
	progs := make([][]program, tenants)
	for slot := range progs {
		progs[slot] = make([]program, distinct)
		faulty := slot < faultySlots
		stormer := faulty && slot%4 == 0
		for p := range progs[slot] {
			s := sourceSeed(seed, slot, p)
			var src trng.Source = trng.NewIdeal(s)
			if slot >= faultySlots && slot < faultySlots+biasedSlots {
				src = trng.NewBiased(churnBias, s)
			}
			data, err := readWords(src, genWords)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(^s))
			pr := program{data: data, steps: make([]int, 0, genWords+1)}
			for i, w := range data {
				pr.steps = append(pr.steps, len(pr.ops))
				pr.words++
				if !faulty {
					pr.ops = append(pr.ops, fleet.Op{Kind: fleet.OpRun, Ws: data[i : i+1]})
					continue
				}
				pr.ops = append(pr.ops, fleet.Op{Kind: fleet.OpWord, W: w, N: 64})
				if rng.Float64() < transientRate {
					pr.ops = append(pr.ops, fleet.Op{Kind: fleet.OpFault, Err: trng.ErrTransient})
				}
				if stormer && i == stormAt {
					// Consecutive mid-sequence hard faults until the breaker
					// trips.
					for k := 0; k < core.DefaultQuarantineLimit+2; k++ {
						pr.ops = append(pr.ops,
							fleet.Op{Kind: fleet.OpWord, W: rng.Uint64(), N: 32},
							fleet.Op{Kind: fleet.OpFault, Err: errHard})
						pr.words += 0.5
					}
				}
			}
			pr.steps = append(pr.steps, len(pr.ops))
			progs[slot][p] = pr
		}
	}
	return progs, nil
}
