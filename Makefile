# Developer entry points mirroring CI (.github/workflows/ci.yml): a change
# that passes `make lint test race fuzz` locally passes the required CI
# steps. Keep the two in sync — CI calls the fuzz target directly.

GO ?= go

# Concurrency-sensitive packages run under the race detector in CI. The
# experiments package's sweep worker pool runs raced via race-parallel
# below.
RACE_PKGS := ./internal/switchfab/ ./internal/netproto/ ./internal/metrics/ ./internal/mesh/ ./internal/churn/ ./internal/datapath/ ./cmd/rcbrd/

# Packages whose worker-pool tests run raced through the race-parallel
# target (each with its own -run filter, so they get explicit recipe lines).
# TestMakefileRaceParallelSync asserts the recipe stays in sync with this
# list — update both together.
RACE_PARALLEL_PKGS := ./internal/experiments/ ./internal/switchfab/ ./internal/datapath/

# Per-fuzz-target smoke budget. `go test -fuzz` takes one target per
# invocation, hence the explicit list.
FUZZTIME ?= 10s

.PHONY: all lint test race race-parallel fuzz bench bench-json bench-compare

all: lint test race

# lint runs the repository's own nine-analyzer suite (cmd/rcbrlint) plus go
# vet. Staticcheck and govulncheck run in CI at pinned versions; run them
# locally with `make lint-extra` if they are installed.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/rcbrlint ./...

# lint-report is the CI form of lint: same required gate, but the analyzer
# findings land in rcbrlint-report.json (always written, "[]" when clean) so
# CI can archive the report as an artifact even on failure.
.PHONY: lint-report
lint-report:
	$(GO) vet ./...
	$(GO) run ./cmd/rcbrlint -json ./... > rcbrlint-report.json || (cat rcbrlint-report.json >&2; exit 1)

.PHONY: lint-extra
lint-extra: lint
	staticcheck ./...
	govulncheck ./...

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	$(MAKE) race-parallel

# race-parallel covers the experiment sweep runner's worker pool, plus the
# sharded-fabric churn shim behind the scaling benchmarks. The Sweep tests
# run 200 times (about 1.5 s): a broken skip rule loses "lowest failing
# index wins" only in some interleavings. The datapath line pins
# GOMAXPROCS=4 so the forwarder, producers and transmitters truly
# interleave under the detector even on smaller CI runners.
race-parallel:
	$(GO) test -race -run '^TestSweep' -count=200 ./internal/experiments/
	$(GO) test -race -run 'Fig|MBAC|Latency|Chernoff' ./internal/experiments/
	$(GO) test -race -run 'Parallel' ./internal/switchfab/
	GOMAXPROCS=4 $(GO) test -race -run 'Conservation|Storm|Ring' ./internal/datapath/

# fuzz smokes every fuzz target for FUZZTIME each: long enough to catch
# shallow regressions in the parsers, short enough for every CI run.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/cell/
	$(GO) test -run '^$$' -fuzz '^FuzzRate16$$' -fuzztime $(FUZZTIME) ./internal/cell/
	$(GO) test -run '^$$' -fuzz '^FuzzParseData$$' -fuzztime $(FUZZTIME) ./internal/cell/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFrame$$' -fuzztime $(FUZZTIME) ./internal/netproto/
	$(GO) test -run '^$$' -fuzz '^FuzzServerHandle$$' -fuzztime $(FUZZTIME) ./internal/netproto/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRMBatch$$' -fuzztime $(FUZZTIME) ./internal/netproto/
	$(GO) test -run '^$$' -fuzz '^FuzzRateFunction$$' -fuzztime $(FUZZTIME) ./internal/ld/
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzIgnoreDirective$$' -fuzztime $(FUZZTIME) ./internal/analysis/

bench:
	$(GO) test -run '^$$' -bench BenchmarkSignalThroughput -benchtime=1x ./internal/netproto/

# bench-harness vets and tests the perfbench module. It is a module of its
# own, so the root `go test ./...` never builds it, yet it calls the
# switchfab and netproto APIs directly.
.PHONY: bench-harness
bench-harness:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench-json records the tier-1 benchmark baseline (ns/op, B/op, allocs/op)
# into BENCH_trellis.json. CI runs it at -benchtime=1x as a smoke step and
# uploads the file as an artifact; for a real baseline use the default
# benchtime: `make bench-json BENCHTIME=2s`.
BENCHTIME ?= 1x
BENCHJSON ?= BENCH_trellis.json

bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) -timeout 30m . \
		| $(GO) run ./cmd/benchjson -o $(BENCHJSON)

# bench-compare reruns the tier-1 benchmarks and diffs them against the
# tracked baseline, failing on a >15% ns/op regression. One-shot runs are
# noisy, so CI treats this as advisory (continue-on-error); for a trustworthy
# verdict use a longer benchtime on a quiet machine.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) -timeout 30m . \
		| $(GO) run ./cmd/benchjson -o BENCH_new.json
	$(GO) run ./cmd/benchjson -compare -threshold 15 $(BENCHJSON) BENCH_new.json
