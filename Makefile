# GraphTrek build and verification targets. `make check` is the full gate
# the CI and pre-commit runs use: vet, build, tests, the race detector, the
# concurrency stress run, one pass over every microbenchmark and (when
# reachable) staticcheck.

GO ?= go
STATICCHECK_VERSION ?= 2025.1.1
STATICCHECK := $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

.PHONY: all build crossbuild vet test race stress fuzz-smoke check lint loc deadcode examples fmt fmtcheck bench benchfull clean

all: build

build:
	$(GO) build ./...

# crossbuild compiles for a unix other than linux and for windows: kv maps
# its tables with mmap on unix and reads them whole elsewhere
# (internal/kv/mmap_*.go), and both sides must keep building.
crossbuild:
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...

vet:
	$(GO) vet ./...

# benchmark/ is a module of its own (BENCHMARK.json runs it), so ./... does
# not reach it; vetting and testing it here makes an internal API change that
# breaks the benchmark fail this gate instead of the perf pipeline.
test:
	$(GO) test ./...
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

race:
	$(GO) test -race ./...

# Concurrency stress: many simultaneous traversals multiplexed over the
# shared per-server executor, the replication chaos suite (quorum writes,
# primary-kill failover, epoch fencing, shard handoff), and the write-churn
# oracle tests, all under the race detector with a short deadline. Stress
# tests opt in by NAME CONVENTION — any `TestStress*` under internal/ is
# picked up automatically, and the target fails loudly if the pattern ever
# matches nothing (the old hand-listed pattern silently drifted as tests
# were added).
stress:
	@out=$$(mktemp); \
	$(GO) test -race -count=1 -timeout 120s -run '^TestStress' -v ./internal/... >$$out 2>&1; status=$$?; \
	n=$$(grep -c '^=== RUN   TestStress' $$out); \
	if [ $$status -ne 0 ]; then cat $$out; rm -f $$out; exit $$status; fi; \
	if [ "$$n" -eq 0 ]; then cat $$out; echo "stress: pattern ^TestStress matched no tests — name-convention drift"; rm -f $$out; exit 1; fi; \
	grep -E '^(ok|---|FAIL)' $$out; rm -f $$out; \
	echo "stress: $$n TestStress* tests passed under -race"

# fuzz-smoke gives each wire/storage codec fuzzer a short randomized budget
# on top of its checked-in seed corpus: frame decoding (v2 columnar), the TCP
# transport's framed reader, the gossiped route-table blob, the edge-key
# parser, the mutation-batch codec, the kv table's record parser, the plan
# decoder (a plan arrives from the client and on the first message from a
# peer) and the name service's name and id lists — and four differential
# fuzzers: the frontier set (adds, checks and reserves, its keys switching
# from the set's first tag to others at any point) against a Go map, the
# affiliate cache's batch admission against one-by-one CheckAndInsert
# (FuzzAdmitMatchesCheckAndInsert), and the vertex and edge predicates
# compiled over encoded values against decode-then-match. Go allows one
# -fuzz target per invocation, hence the sequence.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeV2$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzTCPReadFrames$$' -fuzztime $(FUZZTIME) ./internal/rpc
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTable$$' -fuzztime $(FUZZTIME) ./internal/route
	$(GO) test -run '^$$' -fuzz '^FuzzParseEdgeKey$$' -fuzztime $(FUZZTIME) ./internal/gstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME) ./internal/gstore
	$(GO) test -run '^$$' -fuzz '^FuzzSSTableRecords$$' -fuzztime $(FUZZTIME) ./internal/kv
	$(GO) test -run '^$$' -fuzz '^FuzzSetMatchesMap$$' -fuzztime $(FUZZTIME) ./internal/frontier
	$(GO) test -run '^$$' -fuzz '^FuzzAdmitMatchesCheckAndInsert$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzVertexMatcher$$' -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzEdgeMatcher$$' -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePlan$$' -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNames$$' -fuzztime $(FUZZTIME) ./internal/wire

check: vet build test race stress examples bench lint

# examples runs every program under examples/, the callers of the root
# package's simulated cluster; each must exit 0. go build only compiles them.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; $(GO) run ./$$d >/dev/null || exit 1; \
	done

# Staticcheck is pinned and fetched through the module proxy on demand, so
# nothing is vendored. On an offline machine the probe fails and lint is
# skipped with a warning; under CI=true (as GitHub Actions sets) an
# unreachable staticcheck fails the build instead of silently passing.
lint:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	elif [ "$$CI" = "true" ]; then \
		echo "lint: staticcheck unavailable under CI"; exit 1; \
	else \
		echo "lint: staticcheck unavailable (offline?); skipping"; \
	fi

# loc prints non-test Go lines (benchmark/ is a module of its own and not
# counted), per package and in total — the number CHANGES.md tracks for
# ROADMAP aim 2, so the trajectory comes from a tool and not from a hand.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | sort | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# deadcode lists the functions nothing runs and those only their own
# package's tests run: the benchmark, the examples and every package's tests,
# each built with coverage over the whole module (scripts/deadcode.sh says
# how; EXPERIMENTS.md keeps the tables). It takes minutes.
deadcode:
	@bash scripts/deadcode.sh

fmt:
	gofmt -l -w .

# fmtcheck fails (listing the offenders) instead of rewriting, for CI.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench runs every Go benchmark exactly once (-benchtime=1x), the root
# package's paper benches included: a compile-and-run smoke pass (seconds),
# not a measurement. It is part of check, so a microbenchmark that stops
# compiling or panics fails the push. Use benchfull for real numbers. Both
# pass -benchmem, so B/op and allocs/op print beside every ns/op.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./...

# benchfull lets the benchmark framework pick iteration counts over the same
# packages; expect it to take minutes where bench takes seconds.
benchfull:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

clean:
	$(GO) clean ./...
