# Development entry points for the Kaleidoscope reproduction. Everything is
# plain go-tool invocations; the Makefile just names the common bundles.

GO ?= go

.PHONY: all fmt build test race vet kbench-test examples bench profile bench-json fuzz-smoke chaos-smoke serve-smoke persist-smoke loc check

all: check

## fmt: fail, listing the files, if any tracked Go file is not gofmt-clean
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:" >&2; echo "$$out" >&2; exit 1; fi

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite (the tier-1 gate)
test:
	$(GO) test ./...

## race: race-detect the concurrent packages (worker pool, telemetry,
## switcher/monitor runtime, interpreter, solver, IGO engine, chaos harness, service,
## persistent store, daemon drain sequence)
race:
	$(GO) test -race ./internal/runner ./internal/telemetry ./internal/memview ./internal/interp ./internal/pointsto ./internal/core ./internal/chaos ./internal/serve ./internal/persist ./cmd/kscope-serve

## vet: static checks
vet:
	$(GO) vet ./...

## kbench-test: vet and test the repository benchmark. kbench/ is a nested
## module, so `go test ./...` at the root never reaches it; its tests drive
## the daemon (serve.New, BeginDrain, FlushDirty) and the serve-mix FIFO
## cached-flag oracle
kbench-test:
	cd kbench && $(GO) vet ./... && $(GO) test ./...

## examples: run the four walk-throughs under examples/ and diff each one's
## stdout (deterministic) against its committed examples/<name>/stdout.txt;
## they print the switcher and monitor-runtime fields the library exposes
EXAMPLES = cfihardening fallback introspection quickstart
examples:
	@set -e; for e in $(EXAMPLES); do \
		$(GO) run ./examples/$$e | diff -u examples/$$e/stdout.txt - || { echo "examples: $$e output changed" >&2; exit 1; }; \
	done

## bench: run the evaluation benchmarks, then the front end alone on
## analyze-30k's program (BenchmarkCompileScaled)
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	$(GO) test -bench=CompileScaled -benchmem -run=^$$ ./internal/minic

## profile: CPU and memory profiles of BenchmarkScaledAnalysis (one
## analyze-30k operation: compile, solve, derive the fallback, harden), six
## iterations, into scaled.pprof and scaled-mem.pprof; read them with
## `go tool pprof -top repro.test scaled.pprof`
profile:
	$(GO) test -run '^$$' -bench ScaledAnalysis -benchtime 6x -cpuprofile scaled.pprof -memprofile scaled-mem.pprof .

## bench-json: the benchmark ledger — run the repository benchmark (kbench,
## see kbench/README.md) traced, seed 1, 20 s, on each BENCHMARK.json
## workload and write the per-layer result lines, keyed by workload, to
## BENCH_kbench.json (~2 minutes). Fails unless every run is correct with
## no failed operation. The committed file is the reviewable snapshot; its
## git history is the trajectory
BENCH_WORKLOADS = analyze-30k exec-hardened serve-mix
bench-json:
	@set -e; out=BENCH_kbench.json.tmp; printf '{' > $$out; sep=''; \
	for w in $(BENCH_WORKLOADS); do \
		line=$$(bash kbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 1); \
		case "$$line" in *'"correct":true,'*'"failed":0,'*) ;; \
		*) echo "bench-json: $$w: $$line" >&2; exit 1 ;; esac; \
		printf '%s\n  "%s": %s' "$$sep" "$$w" "$$line" >> $$out; sep=','; \
	done; printf '\n}\n' >> $$out; mv $$out BENCH_kbench.json

## chaos-smoke: fast robustness gate — the fault-injection differential
## harness under -race over a small seed matrix (8 plans in the test, 2 via
## the CLI), asserting every app lands identical / sound-fallback /
## typed-error, never silently wrong
chaos-smoke:
	$(GO) test -race -short -run '^TestChaos' -v ./internal/chaos
	$(GO) run ./cmd/kscope-bench -chaos 1 -chaos-plans 2

## serve-smoke: the daemon gate — start kscope-serve in-process on an
## ephemeral port, health-check it, drive ~2s of generated load under an
## SLO, verify one query round-trip, scrape /metricsz?format=prom, export a
## retained slow-request trace from /tracez, gate a live metrics comparison
## (steady state clean + injected regression flagged), and shut down
## cleanly (exit 1 on any step failing); see docs/RUNBOOK.md
serve-smoke:
	$(GO) run ./cmd/kscope-serve -smoke

## persist-smoke: the crash-safety gate under -race — kill+restart with a
## persistent store (warm-served answers byte-identical, cached=true),
## corruption quarantined with its counter bumped and the result
## transparently re-solved, the chaos restart leg across all three persist
## fault sites, and the daemon's graceful-drain sequence; then the CLI
## restart leg over a seeded plan
persist-smoke:
	$(GO) test -race -run '^(TestRestartWarmCache|TestCorruptRecordQuarantined|TestRecordKeyMismatch|TestEvictionDeletesDiskRecords|TestWarmLoadBounded|TestWriteFailDirty|TestDrainRefuses)' -v ./internal/serve
	$(GO) test -race -run '^TestRestartLeg' -v ./internal/chaos
	$(GO) test -race -run '^(TestGracefulDrain|TestCacheDirOpenFailure)' -v ./cmd/kscope-serve
	$(GO) run ./cmd/kscope-bench -chaos 1 -chaos-plans 1 -chaos-restart

## fuzz-smoke: ~25s native-fuzz sanity pass over the model-based bitset
## fuzzer, the solver-equivalence fuzzer, the persistent-store round-trip
## fuzzer, the MiniC front-end fuzzer, and the daemon's request-decode
## differential fuzzer (plain pass vs the json.Decoder path)
fuzz-smoke:
	$(GO) test ./internal/bitset -run '^$$' -fuzz '^FuzzBitsetModel$$' -fuzztime 5s
	$(GO) test ./internal/pointsto -run '^$$' -fuzz '^FuzzSolverEquivalence$$' -fuzztime 5s
	$(GO) test ./internal/persist -run '^$$' -fuzz '^FuzzPersistRoundTrip$$' -fuzztime 5s
	$(GO) test ./internal/minic -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 5s

## loc: print the lines of tracked Go outside kbench/ (the benchmark's own
## module), non-test and test, the counts ROADMAP and CHANGES.md quote
loc:
	@printf 'non-test Go: %s\n' $$(git ls-files '*.go' ':(exclude)kbench/' | grep -v '_test\.go$$' | xargs cat | wc -l)
	@printf 'test Go: %s\n' $$(git ls-files '*_test.go' ':(exclude)kbench/' | xargs cat | wc -l)

## check: everything a PR must pass
check: fmt build vet test examples kbench-test race fuzz-smoke
