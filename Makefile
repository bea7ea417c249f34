# Development targets. CI runs build/test/race/serve-smoke/cluster-smoke/
# chaos-smoke/frontier-smoke blocking and fuzz and a shuffled race pass
# non-blocking. bench-ab is the performance comparison (bench/README.md).

.PHONY: all build test race vet fmt bench-ab fuzz serve-smoke cluster-smoke chaos-smoke frontier-smoke

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

fmt:
	gofmt -l -w .

# bench-ab runs the repository benchmark (bench/run.sh) in PAIRS alternated
# pairs of REF against the working tree, REF checked out into a temporary
# git worktree, on the same seeds with the order swapped every other pair,
# and ends with each workload's `compare` verdicts (bench/README.md).
# WORKLOAD is one name, a comma-separated list, or all (every workload in
# BENCHMARK.json):
#
#	make bench-ab REF=main WORKLOAD=serve_cold PAIRS=10
#	make bench-ab REF=main WORKLOAD=all PAIRS=10
REF ?= HEAD
WORKLOAD ?= serve_cold
PAIRS ?= 10

bench-ab:
	bash scripts/bench-ab.sh '$(REF)' '$(WORKLOAD)' '$(PAIRS)'

# fuzz gives each JSON-envelope fuzz target, the threshold-search contract
# target, the timeline segment-walk target, the exact-sim gap step and the
# DES calendar order a short budget; CI runs this non-blocking. Failures
# drop reproducers under testdata/fuzz/.
fuzz:
	go test ./internal/solve -run '^$$' -fuzz '^FuzzQueryUnmarshal$$' -fuzztime 30s
	go test ./internal/solve -run '^$$' -fuzz '^FuzzScenarioUnmarshal$$' -fuzztime 30s
	go test ./internal/solve -run '^$$' -fuzz '^FuzzQuerySweepUnmarshal$$' -fuzztime 30s
	go test ./internal/solve -run '^$$' -fuzz '^FuzzFrontierUnmarshal$$' -fuzztime 30s
	go test ./internal/core -run '^$$' -fuzz '^FuzzMinTaskRatio$$' -fuzztime 30s
	go test ./internal/timeline -run '^$$' -fuzz '^FuzzProfileWalk$$' -fuzztime 30s
	go test ./internal/sim -run '^$$' -fuzz '^FuzzExactGap$$' -fuzztime 30s
	go test ./internal/des -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 30s

# serve-smoke starts the HTTP query service, fires one query per kind from
# the checked-in goldens, and diffs the answers against the CLI `feasim
# query` output — proof the HTTP and CLI paths stay in lockstep.
serve-smoke:
	go test ./cmd/feasim -run '^TestServeSmoke$$' -count=1 -v

# cluster-smoke launches three real `feasim serve` processes on loopback in
# cluster mode, posts the same envelope to each, and checks via /v1/cluster
# that the fleet executed exactly one solve (two nodes forwarded to the key's
# home). This is the out-of-process counterpart to the in-process httptest
# cluster suite.
cluster-smoke:
	go test ./cmd/feasim -run '^TestClusterSmoke$$' -count=1 -v

# chaos-smoke launches three real `feasim serve` processes, one with every
# outbound peer request failing (-chaos "seed=7;error=1"), and checks that
# the faulty node's breakers open (visible in `feasim cluster`) while every
# node keeps answering every query correctly — the resilience tier's
# end-to-end gate.
chaos-smoke:
	go test ./cmd/feasim -run '^TestChaosSmoke$$' -count=1 -v

# frontier-smoke streams the checked-in frontier spec through the HTTP
# service (POST /v1/sweep?mode=frontier) and requires the NDJSON cell stream
# and terminal stats to match `feasim sweep -frontier -json` line for line —
# proof the streamed and local adaptive refinements stay in lockstep.
frontier-smoke:
	go test ./cmd/feasim -run '^TestFrontierSmoke$$' -count=1 -v
