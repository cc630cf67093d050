GO ?= go

.PHONY: check fmt vet staticcheck build test bench-selftest bench bench-smoke bench-baseline bench-gate soak soak-short soak-overload soak-overload-short soak-scale soak-scale-short conformance conformance-short

## check: the full local gate — format, vet, staticcheck, build,
## race-enabled tests, the perfbench self-test, the CI-sized overload
## and scale soaks, and the CI-sized conformance gate.
check: fmt vet staticcheck build test bench-selftest soak-overload-short soak-scale-short conformance-short

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck is part of the gate when the binary is present; a machine
# without it (the bare container image) skips with a notice instead of
# failing, and CI installs a pinned version so the check is always
# enforced there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI enforces it)"; \
	fi

build:
	$(GO) build ./...

# The exp package replays every table/figure scenario; under the race
# detector that runs well past go test's default 10 m per-package timeout
# (~35 min on a loaded box). -shuffle=on randomizes test order so
# inter-test state dependencies surface instead of hiding behind source
# order; failures print the shuffle seed to reproduce.
test:
	$(GO) test -race -shuffle=on -timeout 60m ./...

## bench-selftest: the perfbench module's own tests. perfbench is a
## separate module, so `go test ./...` at the root never reaches it. The
## tests pin BENCHMARK.json to perfbench's metric tables and check every
## workload's tiny run against the committed perfbench/digests.json.
bench-selftest:
	$(GO) -C perfbench test -count=1 .

## conformance: the full analytical-twin conformance run — every
## hypothesis fit across seeds 1..5 at full sweep resolution plus the
## bound-calibration matrix over every fault profile. Regenerates the
## committed hypotheses/*/FINDINGS.md and CONFORMANCE.json; rerun after
## intentional physics changes and commit the result.
conformance:
	$(GO) run ./cmd/elemtwin -out .

## conformance-short: the CI-sized conformance gate (reduced sweeps,
## same hypotheses, same calibration profiles; exits non-zero when any
## hypothesis is refuted or any coverage target is missed). Artifacts go
## to ./conformance-out, which CI uploads.
conformance-short:
	@mkdir -p conformance-out
	$(GO) run ./cmd/elemtwin -short -out conformance-out

## soak: the fleet churn soak — ≥1000 supervised connections with
## open/close/crash/stall churn under the race detector, asserting zero
## goroutine leaks, zero bounded-or-flagged violations, and identical
## restart/eviction counters across two same-seed runs (~2 min). The
## first run executes sharded (FLEET_SOAK_SHARDS workers), the second
## single-shard, so the soak also proves shard-count invariance at scale.
soak:
	FLEET_SOAK_CONNS=1000 FLEET_SOAK_SHARDS=4 $(GO) test -race -timeout 30m -run TestFleetSoak -v ./internal/fleet/

## soak-short: the CI-sized soak (~100 connections, ~20 s).
soak-short:
	FLEET_SOAK_CONNS=100 FLEET_SOAK_SHARDS=4 $(GO) test -race -timeout 10m -run TestFleetSoak -v ./internal/fleet/

## soak-overload: the overload-governor chaos soak — repeated
## overload/recovery cycles against a flapping export sink under the race
## detector, across several seeds and shard counts, asserting zero
## goroutine leaks, monotone bound-widening while flows are shed,
## re-tightened bounds after recovery, and byte-identical same-seed
## results at every shard count.
soak-overload:
	ELEMENT_SOAK=1 $(GO) test -race -timeout 30m -run 'TestFleetOverloadSoak$$' -v ./internal/fleet/

## soak-overload-short: the CI-sized overload soak (one seed, ~seconds).
soak-overload-short:
	$(GO) test -race -timeout 10m -run TestFleetOverloadSoakShort -v ./internal/fleet/

## soak-scale: the million-monitor-mode scale soak — 100k closed-form
## flows through the per-shard event loops (hashed timer wheel, SoA
## lite columns, budget-gated two-phase escalation) under the race
## detector, asserting zero goroutine leaks and a byte-identical result
## across two different shard counts of the same seed.
soak-scale:
	$(GO) test -race -timeout 30m -run 'TestFleetScaleSoak$$' -v ./internal/fleet/

## soak-scale-short: the CI-sized scale soak (10k flows).
soak-scale-short:
	$(GO) test -race -short -timeout 10m -run 'TestFleetScaleSoak$$' -v ./internal/fleet/

## bench: every table/figure benchmark plus the overhead ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

## bench-smoke: every benchmark once (-benchtime 1x); writes a
## machine-readable BENCH_<date>.json snapshot for before/after diffs.
bench-smoke:
	$(GO) run ./cmd/benchsmoke

## bench-baseline: regenerate the committed benchmark baseline the gate
## compares against. Run on the reference machine after intentional
## performance changes, and commit the result.
bench-baseline:
	$(GO) run ./cmd/benchsmoke -o BENCH_baseline.json

## bench-gate: the benchmark-regression gate — rerun every benchmark and
## fail on any regression against BENCH_baseline.json (allocs/op gated
## tightly since it is machine-independent; ns/op only against
## order-of-magnitude blowups — see internal/benchgate).
bench-gate:
	$(GO) run ./cmd/benchsmoke -gate BENCH_baseline.json
