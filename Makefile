# Build / test / lint entry points. CI (.github/workflows/ci.yml) runs
# `make ci`; the individual targets are for local use.

GOBIN ?= $(shell go env GOPATH)/bin

.PHONY: all build test race race-engine world-race service-race service-obs-race platoond loadtest bench bench-gate microbench microbench-hot fuzz-smoke fmt-check vet platoonvet vet-taint install-platoonvet fix fix-check lint docs docs-check linkcheck forensics ci

all: build

build:
	go build ./...

test:
	go test ./...

## race runs the full suite under the race detector. The sim kernel is
## single-goroutine by contract, so this mostly guards the run-level
## parallelism in scenario.Sweep and lab.
race:
	go test -race ./...

## race-engine is the scoped race gate for the parallel experiment
## engine and everything rewired on top of it. The scenario presets
## race the PKI runs, whose verify memos live on each run's CA and must
## never be shared across sweep workers; internal/security, which owns
## those unlocked memos and cipher caches, runs its own tests raced too.
race-engine:
	go test -race ./internal/engine/... ./internal/scenario/... ./internal/lab/... ./internal/security/...

## world-race is the scoped race gate for the sharded world: the
## shard-invariance metamorphic suite under the race detector, which
## exercises the epoch barrier across worker counts including
## GOMAXPROCS.
world-race:
	go test -race ./internal/world/...

## service-race is the scoped race gate for the platoond service stack:
## the digest cache, single-flight dedup, admission control and both
## daemon commands under the race detector.
service-race:
	go test -race ./internal/service/... ./cmd/platoond ./cmd/platoonload

## service-obs-race is the scoped race gate for the observability
## surfaces: the timeline ring's snapshot-while-record concurrency and
## the service's opportunistic sampler, trace store and SLO endpoints
## under the race detector.
service-obs-race:
	go test -race ./internal/obs/... ./internal/service/...

## platoond starts the simulation service on localhost:8099 with disk
## spill under /tmp — the quickstart deployment from README.md.
platoond:
	go run ./cmd/platoond -addr 127.0.0.1:8099 -spill /tmp/platoond-spill

## loadtest drives the self-hosted load generator: 2000 requests over
## 20 distinct scenarios, verifying every served body is byte-identical
## to a direct scenario.Run, and writes the measured report (hit rate,
## latency percentiles) to LOADTEST.json — the numbers quoted in
## EXPERIMENTS.md E19.
loadtest:
	go run ./cmd/platoonload -verify -json LOADTEST.json

## bench runs the cmd/bench harness over the E2/E3/E5 workloads and
## records the perf baseline (runs/sec, ns/run, allocs/run) that every
## future PR is compared against.
bench:
	go run ./cmd/bench -o BENCH_baseline.json

## bench-gate re-measures the same workloads against the newest
## committed BENCH_pr<N>.json (highest N) and fails when any workload's
## allocs/run regressed more than TOLERANCE percent, or its ns/run more
## than LAT_TOLERANCE percent on both the mean and the median
## (allocation counts are deterministic; wall clock on shared runners
## is not). A baseline recorded on another host class names, in its
## latency_baseline field, the earlier file whose ns/run figures the
## latency gate uses instead. The fresh measurement is written to
## BENCH_gate.json for artifact upload. Workloads new since the
## comparison baseline are recorded but not gated.
TOLERANCE ?= 10
LAT_TOLERANCE ?= 25
bench-gate:
	go run ./cmd/bench -o BENCH_gate.json -compare $$(ls BENCH_pr*.json | sort -V | tail -n 1) -tolerance $(TOLERANCE) -latency-tolerance $(LAT_TOLERANCE)

## microbench runs the go-test paper-reproduction benchmarks once each
## (shape regeneration, not timing).
microbench:
	go test -bench=. -benchtime=1x -run=^$$ ./...

## microbench-hot times the codec/phy/mac hot-path micro-benchmarks
## with allocation reporting — the quickest view of what the pooled
## envelope, codec scratch, and reused rx-slice rewrites buy.
microbench-hot:
	go test -bench=. -benchmem -run=^$$ ./internal/message ./internal/phy ./internal/mac

## fuzz-smoke runs each message-codec round-trip, peek-vs-decoder,
## session-cipher, world-handoff-codec, spill-reader and
## request-normalisation fuzz target briefly.
fuzz-smoke:
	go test -run=^$$ -fuzz=FuzzDecodeBeacon -fuzztime=10s ./internal/message
	go test -run=^$$ -fuzz=FuzzDecodeManeuver -fuzztime=10s ./internal/message
	go test -run=^$$ -fuzz=FuzzDecodeMembership -fuzztime=10s ./internal/message
	go test -run=^$$ -fuzz=FuzzDecodeEnvelope -fuzztime=10s ./internal/message
	go test -run=^$$ -fuzz=FuzzDecodeContextProof -fuzztime=10s ./internal/message
	go test -run=^$$ -fuzz=FuzzPeekFreshness -fuzztime=10s ./internal/message
	go test -run=^$$ -fuzz=FuzzPeekEnvelope -fuzztime=10s ./internal/message
	go test -run=^$$ -fuzz=FuzzSessionOpen -fuzztime=10s ./internal/security
	go test -run=^$$ -fuzz=FuzzDecodeWorldFrame -fuzztime=10s ./internal/world
	go test -run=^$$ -fuzz=FuzzDecodeWorldMigration -fuzztime=10s ./internal/world
	go test -run=^$$ -fuzz=FuzzReadSpill -fuzztime=10s ./internal/service
	go test -run=^$$ -fuzz=FuzzNormalizeRequest -fuzztime=10s ./internal/service

## docs regenerates every generated document from one measurement:
## the rendered paper tables (docs_tables_output.txt) and the
## attack/defense reference under docs/. Both are committed; CI fails
## if they drift (see docs-check).
docs:
	go run ./cmd/docsgen
	$(MAKE) linkcheck

## docs-check is the CI freshness gate: regenerate and fail on any
## diff, so a PR that changes measured numbers must also commit the
## regenerated docs.
docs-check: docs
	git diff --exit-code docs docs_tables_output.txt

## linkcheck verifies every relative markdown link in the hand-written
## and generated docs resolves to a real file.
linkcheck:
	go run ./cmd/docsgen -check-links README.md DESIGN.md EXPERIMENTS.md docs

## forensics sweeps the attack × defense grid with causal span tracing
## on and writes every cell's attack→effect attribution report (the
## provenance chains from injected frame to measured platoon effect).
## The JSON is byte-identical at any worker count; CI uploads it as an
## artifact next to the perf baseline.
forensics:
	go run ./cmd/attacklab -quick -forensics forensics.json

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

## platoonvet runs the determinism lint suite standalone (no install
## needed).
platoonvet:
	go run ./cmd/platoonvet ./...

## vet-taint runs just the adversarial data-flow pair — the taint
## source→sink tracker and the verify-before-decode gate — for a quick
## trust-boundary check while iterating on ingest or defense code.
vet-taint:
	go run ./cmd/platoonvet -only taint,authgate ./...

## install-platoonvet builds the vet tool into GOBIN for use as
## `go vet -vettool=$(GOBIN)/platoonvet ./...`.
install-platoonvet:
	go build -o $(GOBIN)/platoonvet ./cmd/platoonvet

## fix applies every suggested fix in place (sorted-keys rewrites for
## hazardous map ranges, stream-parameter rewrites for global rand).
fix:
	go run ./cmd/platoonvet -fix ./...

## fix-check previews suggested fixes as a unified diff and fails if
## any file would change; CI runs this so fixable findings can't land.
fix-check:
	go run ./cmd/platoonvet -fix -diff ./...

lint: fmt-check vet platoonvet fix-check

ci: build lint race
