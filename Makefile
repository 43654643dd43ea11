# Convenience targets; everything is plain go commands underneath.

.PHONY: build test race lint fuzz bench-gate baseline tables verify-tables loc

build:
	go build ./...

test:
	go test ./...
	go -C benchmark vet ./... && go -C benchmark test ./...

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
# disagree, and for bytes the .bench front door mishandles — and 10s each
# for shard detection payloads the coordinator's decode mishandles, job
# specs normalize mishandles and vector text the parser mishandles.
fuzz:
	go test ./internal/integration/ ./internal/netlist/ ./internal/service/ ./internal/vectors/ -run Fuzz -count=1
	go test ./internal/integration/ -fuzz=FuzzDifferential -fuzztime=30s
	go test ./internal/netlist/ -run '^$$' -fuzz=FuzzParseBench -fuzztime=30s
	go test ./internal/service/ -run '^$$' -fuzz=FuzzDetectionsView -fuzztime=10s
	go test ./internal/service/ -run '^$$' -fuzz=FuzzJobSpec -fuzztime=10s
	go test ./internal/vectors/ -run '^$$' -fuzz=FuzzParseVectors -fuzztime=10s

# The work-counter gate alone (go test ./... runs it too): every quick
# cell once, each integer held to the baseline.
bench-gate:
	go test ./internal/harness/ -run TestWorkCounters -count=1

# Refresh the checked-in baseline after an intended change in detections
# or work counters (any host: nothing in it is a time).
baseline:
	go test ./internal/harness/ -run TestWorkCounters -count=1 -args -update

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
.PHONY: serve
serve:
	go run ./cmd/csimd -addr :8416

