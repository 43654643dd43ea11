# Convenience targets; everything is plain go commands underneath.

.PHONY: build test race lint fuzz bench bench-gate baseline tables verify-tables loc

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# gofmt, simlint (four analyzers, whole module) + netcheck battery on one
# suite member.
lint:
	test -z "$$(gofmt -l . | tee /dev/stderr)"
	go run ./cmd/simlint ./...
	go run ./cmd/csim -suite s1494 -check

# Fuzzing: replay the fixed corpora, then let the native fuzzer search for
# 30s each (raise -fuzztime at will) — for seeds on which the engines
# disagree, and for bytes the .bench front door mishandles.
fuzz:
	go test ./internal/integration/ ./internal/netlist/ -run Fuzz -count=1
	go test ./internal/integration/ -fuzz=FuzzDifferential -fuzztime=30s
	go test ./internal/netlist/ -run '^$$' -fuzz=FuzzParseBench -fuzztime=30s

# Full benchmark suite -> BENCH_<timestamp>.json (several minutes).
bench:
	go run ./cmd/bench -suite full

# What CI runs: quick suite against the checked-in baseline.
bench-gate:
	go run ./cmd/bench -suite quick -baseline baselines/bench-quick.json

# Refresh the checked-in quick-suite baseline (run on a quiet machine).
baseline:
	go run ./cmd/bench -suite quick -out baselines/bench-quick.json

# Regenerate the committed tables artifact (slow: full circuit lists).
tables:
	go run ./cmd/tables > tables_output.txt

# Drift check: regenerate and diff with volatile CPU/MEM cells masked.
verify-tables:
	go run ./cmd/tables -diff tables_output.txt

# The sizes ROADMAP tracks at every re-anchor: the two totals, and the
# code-about-the-code subtotals (non-test lines, fixtures included).
loc:
	@echo "non-test Go lines outside benchmark/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
	@echo "_test.go lines outside benchmark/:    $$(find . -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
	@echo "  internal/lint + cmd/simlint:        $$(find internal/lint cmd/simlint -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "  internal/obs:                       $$(find internal/obs -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

# Run the fault-simulation service locally (see README "Serving").
.PHONY: serve serve-load
serve:
	go run ./cmd/csimd -addr :8416

# Drive a running csimd with the CI smoke load (serve in another shell).
serve-load:
	go run ./cmd/csimload -addr http://127.0.0.1:8416 \
	    -clients 32 -jobs 2 -circuit s5378 -random 100 -seed 1 \
	    -expect-detections 4505 -min-cache-hit 0.9 -max-requests-per-job 1.1
