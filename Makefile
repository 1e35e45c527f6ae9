# Mirrors .github/workflows/ci.yml so `make check` locally is the same
# gate CI runs, with one exception: CI's benchmark-trajectory step
# (bench-diff) is left out, because it compares ns/op against
# BENCH_latest.json, an archive recorded on another host, so a local run
# measures the host difference more than the change. Run it by hand with
# `make bench-diff`.
.PHONY: check vet build test bench-smoke bench bench-diff lint docs docs-check soak ttd fuzz-smoke loc

check: build lint docs-check test bench-smoke soak fuzz-smoke

# docs regenerates every generated document (REGISTERS.md is produced from
# the live hardware definitions). CI runs docs-check to fail on drift.
docs:
	go run ./cmd/regmapdoc -o REGISTERS.md

# docs-check additionally runs cmd/doccheck: every exported identifier in
# every package under internal/ and cmd/ must carry a doc comment, and every repro
# command quoted in EXPERIMENTS.md's fenced blocks must still parse against
# the repository (go run ./cmd/<name> directories, make targets).
docs-check: docs
	git diff --exit-code REGISTERS.md
	go run ./cmd/doccheck -md EXPERIMENTS.md ./internal/... ./cmd/...

vet:
	go vet ./...

# loc prints the line count the ROADMAP measures code size by, per package
# and in total: non-blank lines that are not // comments, in the non-test
# Go files of the packages of `go list ./...` (bench/ is its own module, so
# it is not counted).
loc:
	@go list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
		awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline l < $$i) > 0) \
			if (l !~ /^[ \t]*$$/ && l !~ /^[ \t]*\/\//) n++; close($$i) } \
			printf "%7d %s\n", n, $$1; t += n } END { printf "%7d total\n", t }'

build:
	go build ./...

# -shuffle=on randomizes test order so accidental inter-test state
# dependence surfaces instead of hiding behind a fixed order. bench/ is its
# own module, so the root ./... skips it: the second pair of commands runs
# the benchmark harness's vet and its own tests (the BENCHMARK.json drift
# gate and the short correctness smoke).
test:
	go test -race -shuffle=on ./...
	go -C bench vet ./...
	go -C bench test -short ./...

# lint is the static gate: formatting, go vet (whose copylocks check is
# also the rule against copying a struct that holds atomics), the
# repository's own trnglint analyzers (16-bit bus masking, determinism,
# error-contract and monitor-reset invariants, the conclint concurrency
# family — guardedby, atomicmix, lockorder, gorolife — and the perflint
# hot-path family — noalloc, hotcall, nodefer over the //trnglint:hotpath
# closure; see internal/analysis), and escapecheck (the compiler
# cross-check: go build -gcflags=-m=2 escape diagnostics correlated
# against the hot closure, so a heap escape the syntactic analyzers
# cannot see still fails the gate). The design-space checker
# (internal/analysis/designlint) has no step here: its
# TestShippedDesignsClean runs in `make test`, as in CI's check job. The
# linters are built once into a cached bin dir so repeated `make lint`
# runs pay one link, not one per invocation, and trnglint runs with -time
# so per-analyzer wall time shows up in the log — a slow analyzer is a
# regression too. govulncheck runs when installed; the offline dev
# container does not ship it.
LINTBIN := .cache/lintbin

lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@mkdir -p $(LINTBIN)
	go build -o $(LINTBIN)/trnglint ./cmd/trnglint
	go build -o $(LINTBIN)/escapecheck ./cmd/escapecheck
	./$(LINTBIN)/trnglint -time ./...
	./$(LINTBIN)/escapecheck ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipped (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# fuzz-smoke runs each native fuzz target for 10 s past its seed corpus,
# which `make test` already replays: the differential targets (the
# bit-sliced tile engine and the word-level fast path, both against their
# references, with fuzz-chosen lane sets and burst lengths), the online
# tracker's window statistics against a rescan of the window (fuzz-chosen
# words, push sizes and Reset points) and the directive parser. A failing input lands in the package's
# testdata/fuzz/ as a reproducer to commit with the fix.
fuzz-smoke:
	go test ./internal/hwslice -run='^$$' -fuzz='^FuzzSliceEquivalence$$' -fuzztime=10s
	go test ./internal/hwfast -run='^$$' -fuzz='^FuzzFastPathEquivalence$$' -fuzztime=10s
	go test ./internal/online -run='^$$' -fuzz='^FuzzTrackerWindow$$' -fuzztime=10s
	go test ./internal/analysis -run='^$$' -fuzz='^FuzzParseDirectives$$' -fuzztime=10s

# ttd reproduces the time-to-detect tables of EXPERIMENTS.md ("Time to
# detect"): the online anomaly detector swept across the defect zoo.
# Deterministic in the seed — the published tables regenerate bit for bit.
ttd:
	go run ./cmd/ttd -n 128 -variant medium -trials 25 -onset 4096
	go run ./cmd/ttd -n 128 -variant medium -family bias -trials 25 \
		-onset 4096 -window 4096 -max-bits 1048576

# soak is the race-enabled fleet chaos smoke: a short trngd run with every
# defect class at once (fault-storming, biased and transient-flaky tenants
# under the sampled-degradation shed policy, deadline sweeper armed) plus
# monitor recycling across generations. trngd itself enforces the batch
# accounting identity on every stream report and exits non-zero on a leak,
# so this is a correctness gate, not just a does-it-crash check. Runs
# twice — serial ingest and bit-sliced lane-group ingest — so the sliced
# hot path (tile absorb, final-tile hand-back) soaks under -race with every
# defect class too. That needs 256 words per generation: with 24 streams
# per shard no group fills its 64 lanes, so a group starts absorbing only
# once a lane buffers 192 words, and at fewer words every bit drains
# serially at Detach. The bit-sliced run prints its tile count, and
# cmd/trngd's TestSoakAbsorbsTiles requires it to be non-zero. Bounded
# wall time: ~seconds. GORACE=halt_on_error=1 turns the race detector's report
# into an immediate non-zero exit, so a data race fails the gate even if
# the run would otherwise complete with a clean accounting identity.
soak: export GORACE=halt_on_error=1
soak:
	go run -race ./cmd/trngd -n 128 -variant light \
		-streams 192 -words 256 -generations 2 -shards 8 -queue 64 \
		-policy sample -sample-every 8 \
		-faulty 0.25 -transient-rate 0.1 -biased 0.125 -bias 0.8 \
		-stream-deadline 30s -sweep-every 25ms -seed 7
	go run -race ./cmd/trngd -n 128 -variant light -bitsliced \
		-streams 192 -words 256 -generations 2 -shards 8 -queue 64 \
		-policy sample -sample-every 8 \
		-faulty 0.25 -transient-rate 0.1 -biased 0.125 -bias 0.8 \
		-stream-deadline 30s -sweep-every 25ms -seed 7

# Full benchmark run, archived as machine-readable JSON (test2json framing
# around the standard benchmark lines) for regression comparison. The run
# lands in BENCH_latest.json — the stable name bench-diff and CI compare
# against — and is also copied to a dated archive. Writing the stable file
# first means two same-day runs no longer silently reuse a stale dated
# file: BENCH_latest.json always holds the newest run. The no-op pre-pass
# warms the build cache so compilation of later packages does not
# time-share the CPU with (and inflate) earlier packages' benchmarks.
bench:
	go test -run='^$$' -bench='^$$' ./... > /dev/null
	go test -run='^$$' -bench=. -benchmem -json ./... > BENCH_latest.json
	cp BENCH_latest.json BENCH_$$(date +%Y%m%d).json

# bench-diff is the benchmark-trajectory gate: re-run every benchmark with
# a short benchtime and compare per-benchmark ns/op against the committed
# BENCH_latest.json archive. The threshold is deliberately generous — CI
# machines are noisy and differ from the machine that produced the archive
# — so the gate trips on order-of-magnitude fast-path regressions, not
# scheduling jitter. The fresh run is written next to the archive but
# never committed.
bench-diff:
	go test -run='^$$' -bench='^$$' ./... > /dev/null
	go test -run='^$$' -bench=. -benchmem -benchtime=100ms -json ./... > BENCH_head.json.tmp
	go run ./cmd/benchdiff -fail-over 100 BENCH_latest.json BENCH_head.json.tmp
	rm -f BENCH_head.json.tmp
