GO ?= go

.PHONY: verify vet fmt golden race faultsmoke soak servesmoke slosmoke fuzz-smoke fuzz litmus execdiff selectors perfbench-check bench bench-json bench-diff ci

# Tier-1: the gate every change must pass (see ROADMAP.md), plus the
# static gates and the race detector over the parallel sweep engine.
# The exp determinism/golden tests pin 8-worker runners internally, so
# the race run exercises real cross-worker interleavings.
verify: vet fmt
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/exp/...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Regenerate the golden snapshots after an intentional metric change,
# then inspect the diff before committing: the exp figure snapshots and
# the serve reports pinned by TestDeterminism and TestChaosSoak (every
# serve test runs; only those two read -update).
golden:
	$(GO) test ./internal/exp -run TestGoldenOutputs -update
	$(GO) test ./internal/serve -update

# Tier-2: static analysis + race detector over the full suite.
race: vet
	$(GO) test -race ./...

# Fault-injection smoke: seeded dropped-fill run must recover, validate
# against the golden model, and replay byte-for-byte from its seed.
faultsmoke:
	$(GO) test -run TestFaultSmoke ./internal/check

# Fault-matrix soak: the widened injector matrix (every fault class ×
# several seeds × three DSAs) driven through the resilient sweep engine
# under the race detector. Plain `go test` runs the short matrix; this
# target is the verify-tier full version. See internal/exp/runner/README.md.
soak:
	XCACHE_SOAK=full $(GO) test -race -run TestFaultMatrixSoak -count=1 -v ./internal/exp/runner

# Serve smoke: the multi-tenant service layer under the race detector.
# One goroutine ticks every shard, the mux and the DRAM channels; -race
# keeps any goroutine added to the serve path gated in ci. Covers the
# unloaded smoke, the golden-pinned determinism check and the full chaos
# soak (seeded faults, golden-pinned, byte-stable stats).
servesmoke:
	$(GO) test -race -count=1 -run 'TestSmoke|TestDeterminism|TestChaosSoak' ./internal/serve

# SLO smoke: the graceful-degradation tier under the race detector —
# the AIMD governor's convergence proofs (tight budget throttles and
# sheds, slack budget never does, factor recovers off the floor after
# pressure lifts) plus the channel-outage acceptance proof (seeded
# outage at 1.5x load: conservation holds, the mux quarantines and
# re-steers, SLO attainment recovers to its pre-fault level within
# bounded epochs, and the report is byte-stable across same-seed reruns)
# and the multi-channel knee shift. Kept under -race for the same
# reason as servesmoke.
slosmoke:
	$(GO) test -race -count=1 -run 'TestSLOGovernorThrottles|TestSLOSlackBudget|TestSLOGovernorRecovers|TestChannelOutageRecovery|TestMultiChannelKnee|TestMuxFailover' ./internal/serve

# Fuzz smoke: replay the checked-in seed corpora (testdata/fuzz/) through
# every fuzz target deterministically — no -fuzz randomness, so it is a
# stable CI tier (~seconds). FuzzDecode/FuzzAssemble pin the ISA layer;
# FuzzVerify pins accepts-implies-no-structural-trap on a live
# controller; FuzzExecDiff pins the two microcode executors equivalent
# on every accepted program, trace classes included; FuzzParseTenantSpec
# pins the xcache-serve tenant grammar (accept implies valid,
# canonical-format round-trip); FuzzCoherence pins the coherent
# hierarchy against its flat single-port oracle (including the committed
# regression input for the grant/back-inval race); FuzzDRAMSched pins
# the per-bank DRAM scheduler against its window-scan reference in
# lockstep; FuzzAddrCache pins the address cache and walk engine against
# their map-MSHR, scanning reference in lockstep.
fuzz-smoke:
	$(GO) test -run Fuzz -count=1 ./internal/isa ./internal/ctrl ./internal/serve ./internal/hier ./internal/dram ./internal/addrcache

# Open-ended fuzzing (not part of ci): 30s per target, promote anything
# interesting from the build cache into testdata/fuzz/ before committing.
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/isa
	$(GO) test -fuzz FuzzAssemble -fuzztime 30s ./internal/isa
	$(GO) test -fuzz FuzzVerify -fuzztime 30s ./internal/ctrl
	$(GO) test -fuzz FuzzExecDiff -fuzztime 30s ./internal/ctrl
	$(GO) test -fuzz FuzzParseTenantSpec -fuzztime 30s ./internal/serve
	$(GO) test -fuzz FuzzCoherence -fuzztime 30s ./internal/hier
	$(GO) test -fuzz FuzzDRAMSched -fuzztime 30s ./internal/dram
	$(GO) test -fuzz FuzzAddrCache -fuzztime 30s ./internal/addrcache

# Coherence litmus + protocol suite, race-gated: the golden-pinned litmus
# outcomes (store buffering, message passing, load buffering, write
# serialization, upgrade, inclusion), the MESI-lite unit tests (sharing,
# invalidation, eviction writeback, merge serialization, fault retry and
# the liveness trap), the directory's coherence self-check against the
# map-and-sort reference checker after every cycle (litmus, fuzz corpus,
# supervised aborts, open loop, coh-share cells) and on one corruption
# per rule, the allocation gates (warm coherent cycles, checked and
# unchecked, and a MetaL1 miss), and the coh-share figure's golden +
# shape checks.
litmus:
	$(GO) test -race -count=1 -run 'TestLitmus|TestCoh|TestMetaL1MissAllocatesNothing' ./internal/hier
	$(GO) test -race -count=1 -run 'TestCohShare' ./internal/exp

# Executor equivalence, race-gated: the per-cycle lockstep differential
# harness and trap-parity matrix over both microcode executors
# (internal/ctrl), plus the end-to-end result-equivalence sweep across
# every DSA's real walker program (internal/exp/runner).
execdiff:
	$(GO) test -race -count=1 -run 'TestExecDiff|TestTrapMatrix|TestTrapMalformedBinaryRegression|TestMakeRoom|TestAllocRetry' ./internal/ctrl
	$(GO) test -race -count=1 -run TestExecPathEquivalence ./internal/exp/runner

# Selector guard: go test passes when -run matches nothing, so a renamed
# test would drop out of its tier unnoticed. Every |-alternative of
# every -run regex in this Makefile must list at least one test in each
# package on the same line (go test -list, once per package). bench's
# -run xxx is the one deliberately empty selector.
selectors:
	@pairs=$$(awk '/^\t/ { re = ""; pkgs = ""; \
		for (i = 1; i <= NF; i++) { \
			if ($$i == "-run") re = $$(i + 1); \
			if ($$i ~ /^\.\//) pkgs = pkgs " " $$i; \
		} \
		gsub("\047", "", re); \
		if (re == "" || re == "xxx") next; \
		np = split(pkgs, p, " "); na = split(re, a, "|"); \
		for (j = 1; j <= np; j++) for (k = 1; k <= na; k++) print p[j], a[k]; \
	}' Makefile); \
	fail=0; \
	for pkg in $$(echo "$$pairs" | cut -d' ' -f1 | sort -u); do \
		tests=$$($(GO) test -list . $$pkg) || exit 1; \
		for alt in $$(echo "$$pairs" | awk -v p=$$pkg '$$1 == p { print $$2 }'); do \
			if ! echo "$$tests" | grep -E '^(Test|Fuzz|Example)' | grep -qE -- "$$alt"; then \
				echo "selectors: -run alternative $$alt lists no test in $$pkg"; fail=1; \
			fi; \
		done; \
	done; \
	if [ $$fail = 1 ]; then exit 1; fi; \
	echo "selectors: all $$(echo "$$pairs" | wc -l) (package, alternative) pairs list a test"

# Benchmark module: perfbench/ is its own Go module (replace xcache =>
# ../), so the root `go build ./...` never compiles it, yet it imports
# the DSA runners' Options and widx.AddrGeometry. Vet it and run its
# short tests against the current tree.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test -short -count=1 .

bench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# Perf baseline: regenerate the committed BENCH_1.json — the full
# deterministic figure set plus the hotloop executor microbenchmark.
# The deterministic figures are seed-pinned and worker-count-invariant,
# so regenerating them on an unchanged tree is byte-identical (the
# result-invariance proof speed PRs rely on, gated by bench-diff); the
# hotloop figure carries wall-clock ns-per-action and the fast-path
# speedup, which are machine-dependent by nature.
bench-json:
	XCACHE_BENCH_WORKERS=8 $(GO) run ./cmd/xcache-bench -scale 25 -hotloop -json BENCH_1.json >/dev/null

# Perf gate: re-run the evaluation and compare against the committed
# BENCH_1.json. Deterministic figures must match exactly; the hotloop
# fast-path speedup (the median of 15 interleaved interp/fast pairs, with
# its quartiles printed) may not regress more than 5%. Fails (exit 1) on
# either violation.
bench-diff:
	XCACHE_BENCH_WORKERS=8 $(GO) run ./cmd/xcache-bench -scale 25 -hotloop -bench-diff BENCH_1.json >/dev/null

ci: verify selectors perfbench-check race faultsmoke soak servesmoke slosmoke fuzz-smoke litmus execdiff
