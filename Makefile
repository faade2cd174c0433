# Tier-1 verification: everything must build, vet clean, pass reuselint (the
# module's own static-analysis suite, see DESIGN.md §5f), pass the full test
# suite under the race detector (the experiment harness runs simulations
# concurrently, so -race is part of the gate, not an extra), emit a valid
# telemetry trace, and serve a lint-clean live observability surface.
.PHONY: check build vet lint lint-stats test race fuzz bench bench-baseline bench-all telemetry-check obs-check ckpt-check report-check

check: build vet lint race telemetry-check obs-check ckpt-check report-check

build:
	go build ./...

vet:
	go vet ./...

# Static-analysis gate: the six reuseiq analyzers (zerocost, hotalloc,
# exhaustive, metricname, statecov, determinism) over the whole module. The
# same binary also speaks the cmd/go vettool protocol, so a per-package run
# without the module-wide closure is: go build -o bin/reuselint ./cmd/reuselint &&
# go vet -vettool=bin/reuselint ./...
lint:
	go run ./cmd/reuselint ./...

# Same gate plus the per-analyzer finding and waiver counts. The waiver
# counts are the suppressed-finding budget; TestWaiverBudget pins them, so
# waiver creep fails CI rather than accumulating silently.
lint-stats:
	go run ./cmd/reuselint -stats ./...

test:
	go test ./...

race:
	go test -race ./...

# Telemetry gate: run a gating kernel with tracing on and validate the
# emitted Chrome trace JSON (well-formed, monotone timestamps, balanced
# begin/end pairs, RIQ state-machine slices present); then record the same
# kernel with the flight recorder, load it cold in reusedbg, export a
# Perfetto window and validate it as a seekable window.
telemetry-check:
	@mkdir -p bench
	go run ./cmd/reusesim -kernel aps -trace bench/telemetry-check.json > /dev/null
	go run ./cmd/tracecheck -require-riq bench/telemetry-check.json
	rm -rf bench/telemetry-rec
	go run ./cmd/reusesim -kernel aps -flightrec bench/telemetry-rec > /dev/null
	go run ./cmd/reusedbg -dir bench/telemetry-rec -e "export bench/telemetry-window.json"
	go run ./cmd/tracecheck -window bench/telemetry-window.json

# Observability gate: spawn reusesim with a live -listen server, then validate
# it end to end with cmd/obscheck — exposition-format lint on /metrics, counter
# monotonicity across two scrapes, well-formed SSE frames from /events, and a
# decodable /status. The -linger window keeps the server up after the run so
# both scrapes land; obscheck kills the child when done.
obs-check:
	go run -race ./cmd/obscheck -- go run -race ./cmd/reusesim -kernel aps -listen 127.0.0.1:0 -linger 30s

# Checkpoint/restore gate: in-process save/restore lockstep smoke (plain and
# chaos), then a scripted kill -9 of a journaled reusebench sweep followed by
# -resume, requiring a byte-identical report and no double-counted cells.
ckpt-check:
	go run ./cmd/ckptcheck -- go run ./cmd/reusebench -figure 5 -sizes 32 -benchjson= -progress=false -ckpt-every 20000

# Run-ledger gate: two scripted runs into a fresh ledger, the regression
# sentinel must pass on identical fingerprints and fail on an injected
# one-count drift, and the /runs + /dashboard wire formats must match the
# golden skeletons (regenerate after intentional schema changes with
# go run ./cmd/reportcheck -update).
report-check:
	go run -race ./cmd/reportcheck

# Coverage-guided fuzzing of the assembler (see internal/asm/fuzz_test.go),
# the snapshot decoder (internal/snapshot/fuzz_test.go) and the
# flight-recorder manifest decoder (internal/flightrec/fuzz_test.go). Fully offline:
# the module has no dependencies, so no network or vendor directory is
# needed — the corpus seeds live in testdata. Override the budget with
# make fuzz FUZZTIME=2m. The snapshot run caps input minimization: a binary
# format makes nearly every mutation "interesting", and the default
# 60s-per-input minimization would stall the fuzzer.
FUZZTIME ?= 30s
fuzz:
	go test -fuzz=FuzzAssemble -fuzztime=$(FUZZTIME) ./internal/asm/
	go test -fuzz=FuzzSnapshotDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/snapshot/
	go test -fuzz=FuzzManifestDecode -fuzztime=$(FUZZTIME) ./internal/flightrec/

# Perf-regression gate: run the hot-loop and flight-recorder benchmarks and
# compare against the checked-in baseline with cmd/benchdiff (a benchstat
# stand-in; no external tools). Fails on a >10% ns/op or allocs/op regression
# of any watched benchmark. Regenerate the baseline with bench-baseline after
# an intentional perf change — on the same machine, so deltas mean something.
# BenchmarkKernelStep runs the paper kernels: the gate watches aps at IQ 256
# and 128 (LSQ-heavy at the largest queues, where most loads park behind
# stores), btrix at IQ 64 and btrix at IQ 32 (the longest runs; at IQ 32
# dispatch and decode weigh most). go test matches each level of a name on
# its own, and a top-level benchmark without sub-benchmarks does not run
# under a multi-level pattern, so the kernels take a second invocation; it
# also runs aps at IQ 32 and 64 and btrix at IQ 128 and 256, which are
# recorded but not watched.
BENCH_RE        = ^(BenchmarkSimulatorSpeed|BenchmarkFlightRecorder)$$
BENCH_KERNEL_RE = ^BenchmarkKernelStep$$/^(aps|btrix)$$/^iq(32|64|128|256)$$
BENCH_WATCH     = BenchmarkSimulatorSpeed,BenchmarkFlightRecorder/on,BenchmarkFlightRecorder/off,BenchmarkKernelStep/aps/iq256,BenchmarkKernelStep/btrix/iq64,BenchmarkKernelStep/btrix/iq32,BenchmarkKernelStep/aps/iq128
bench:
	@mkdir -p bench
	go test -run '^$$' -bench '$(BENCH_RE)' -benchmem -count 3 . | tee bench/latest.txt
	go test -run '^$$' -bench '$(BENCH_KERNEL_RE)' -benchmem -count 3 . | tee -a bench/latest.txt
	go run ./cmd/benchdiff -watch '$(BENCH_WATCH)' bench/baseline.txt bench/latest.txt

bench-baseline:
	@mkdir -p bench
	go test -run '^$$' -bench '$(BENCH_RE)' -benchmem -count 3 . | tee bench/baseline.txt
	go test -run '^$$' -bench '$(BENCH_KERNEL_RE)' -benchmem -count 3 . | tee -a bench/baseline.txt

# The full benchmark suite (tables, figures, ablations), no regression gate.
bench-all:
	go test -bench=. -benchmem
