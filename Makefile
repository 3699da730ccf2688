GO ?= go

.PHONY: ci vet lint lint-static lint-baseline loc build test race loop-smoke bench bench-micro bench-smoke smoke fuzz-smoke crash-smoke explain-smoke serve-smoke ingest-smoke profile profile-micro

ci: vet lint lint-static build test race loop-smoke

vet:
	$(GO) vet ./...

# Static checks beyond vet: formatting drift fails the build.
lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# Project-specific invariants (internal/lint): deterministic map
# iteration, a clock-free refinement core, crash-safe atomic publishing,
# threaded cancellation, allocation-free hot paths, shard-ownership in
# parallel closures, nil-safe telemetry methods, the layering DAG, and
# audited error returns. Emits one JSON object per finding (matched by
# .github/bdrmapitlint-problem-matcher.json in CI) and exits non-zero
# on any finding not grandfathered in lint.baseline — including stale
# //lint:ignore annotations and ledger entries that no longer fire.
lint-static:
	$(GO) run ./cmd/bdrmapitlint -json -baseline lint.baseline ./...

# Regenerate the grandfathering ledger, then fail if it drifted from
# the committed file: a fixed violation must shrink lint.baseline in
# the same commit, and a new violation can only enter it deliberately.
lint-baseline:
	$(GO) run ./cmd/bdrmapitlint -write-baseline lint.baseline ./...
	git diff --exit-code -- lint.baseline

# Net line count is a tracked metric (ROADMAP north-star 2), and this is
# how it is counted: lines of non-test Go with and without bench/ (a
# module of its own), test Go on its own line — reported, never netted
# against the first two — the three files of internal/core the
# flat-graph work (ROADMAP item 8) will have to touch, and the number of
# //lint:ignore directives in non-test Go outside the linter and its
# fixtures: each is a proof obligation someone wrote by hand. Quote the
# output, parent and change, in CHANGES.md.
LOC_FIND = find . -path ./.bench_build -prune -o -name '*.go'
LOC_IGNORES = $(LOC_FIND) ! -name '*_test.go' ! -path './internal/lint/*' ! -path './cmd/bdrmapitlint/*' ! -path '*/testdata/*' -print | xargs grep -h
loc:
	@echo "non-test Go, with bench/:    $$($(LOC_FIND) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "non-test Go, without bench/: $$($(LOC_FIND) ! -name '*_test.go' ! -path './bench/*' -print | xargs cat | wc -l)"
	@echo "test Go (not netted):        $$($(LOC_FIND) -name '*_test.go' -print | xargs cat | wc -l)"
	@wc -l internal/core/refine.go internal/core/delta.go internal/core/graph.go
	@echo "//lint:ignore directives:    $$($(LOC_IGNORES) '//lint:ignore ' | wc -l) ($$($(LOC_IGNORES) '//lint:ignore maporder ' | wc -l) maporder)"

build:
	$(GO) build ./...

# -shuffle=on randomizes test order to flush ordering-dependent tests —
# the dynamic counterpart of the maporder static check. bench/ is its
# own module (./... stops at its go.mod), so the product-loop
# benchmark's tests need their own invocation.
test:
	$(GO) test -shuffle=on ./...
	$(GO) test -C bench ./...

# The full concurrency surface under the race detector; the parallel
# refinement engine makes every package a potential concurrent caller.
race:
	$(GO) test -race ./...

# The product loop once, for real: the smallest workload of bench/
# (single-vp, ≈ 850 traces) untraced for two seconds — the built
# bdrmapit, bdrmapit-ingest and bdrmapitd as child processes over
# generated files, with every check the benchmark makes on every run
# (1 ≡ N workers, delta ≡ scratch, absorb ≡ recover, zero failed or
# inconsistent lookups). It gates correctness, not speed: the result
# line must say "correct":true and "failed":0. Writes only under the
# gitignored .bench_build/.
loop-smoke:
	@out=$$(sh bench/run.sh --workload single-vp --seed 1 --seconds 2 | tail -n 1); \
	echo "$$out"; \
	case "$$out" in *'"correct":true'*) ;; *) echo "loop-smoke: result line does not say \"correct\":true"; exit 1;; esac; \
	case "$$out" in *'"failed":0,'*|*'"failed":0}'*) ;; *) echo "loop-smoke: result line does not say \"failed\":0"; exit 1;; esac

# Benchmark ladder: run the full pipeline over one rung (RUNG=S|M|L|XL)
# and write BENCH_$(RUNG).json at the repo root. S and M are CI-sized;
# L takes minutes and XL is a deliberately long manual run — both are
# run by hand when regenerating the committed artifacts.
RUNG ?= S
BENCH_WORKERS ?= 8
bench:
	$(GO) run ./cmd/benchrun -rung $(RUNG) -workers $(BENCH_WORKERS) -out BENCH_$(RUNG).json

# The pre-existing micro-benchmarks over the small topology, the two
# trace loaders over a simulated campaign (MB/s per serialization),
# graph construction alone (traces/s and hops/s at 1 and N workers),
# the simulator's own cost at rung S (generation, campaign) and per
# probe (a re-seed and a pair's draws, lazy source against math/rand's),
# its alias resolution over a small campaign (MIDAR, kapar), one daemon
# request per query class through the handler, without a socket, and
# what a process reads before it refines: the MRT and text RIB readers,
# the ITDK nodes reader and a Builder image's decode and replay.
bench-micro:
	$(GO) test -short -bench 'BenchmarkRefineWorkers|BenchmarkInferenceWorkers|BenchmarkRefineRecorder|BenchmarkServeSnapshot' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkReadJSONL|BenchmarkReadBinary' -benchmem ./internal/traceroute
	$(GO) test -run '^$$' -bench 'BenchmarkBuildGraph|BenchmarkReplay' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkGenerate|BenchmarkRunCampaign|BenchmarkProbeSeed' -benchmem ./internal/topo
	$(GO) test -run '^$$' -bench 'BenchmarkMIDAR|BenchmarkKapar|BenchmarkReadNodes' -benchmem ./internal/alias
	$(GO) test -run '^$$' -bench 'BenchmarkHandler' -benchmem ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkMRTRead' -benchmem ./internal/mrt
	$(GO) test -run '^$$' -bench 'BenchmarkReadRoutes' -benchmem ./internal/bgp

# CI gate: a fresh S rung end-to-end, validated against the benchfmt
# schema by reportcheck, compared metric-by-metric against the committed
# S artifact (determinism metrics exactly; cost metrics within 200% —
# CI machines vary, so the threshold catches order-of-magnitude
# blowups, not noise), plus a ladder check over the committed artifacts.
bench-smoke:
	$(GO) run ./cmd/benchrun -rung S -out /tmp/BENCH_S.smoke.json
	$(GO) run ./cmd/reportcheck -bench /tmp/BENCH_S.smoke.json
	$(GO) run ./cmd/reportcheck -bench-compare BENCH_S.json,/tmp/BENCH_S.smoke.json -regress 200
	$(GO) run ./cmd/reportcheck -bench BENCH_S.json,BENCH_M.json,BENCH_L.json

# End-to-end smoke: generate a small simnet dataset, run the CLI with
# telemetry enabled, and validate the emitted run report (phases parse,
# durations non-zero, pipeline counters fired).
SMOKE_DIR ?= /tmp/bdrmapit-smoke
smoke:
	rm -rf $(SMOKE_DIR)
	$(GO) run ./cmd/topogen -out $(SMOKE_DIR) -small -seed 7 -vps 10
	$(GO) run ./cmd/bdrmapit \
		-traces $(SMOKE_DIR)/traces.jsonl -rib $(SMOKE_DIR)/rib.txt \
		-rir $(SMOKE_DIR)/delegated-extended.txt -ixp $(SMOKE_DIR)/ixp-prefixes.txt \
		-rels $(SMOKE_DIR)/as-rel.txt -aliases $(SMOKE_DIR)/nodes.txt \
		-quiet-report -report-json $(SMOKE_DIR)/report.json
	$(GO) run ./cmd/reportcheck -report $(SMOKE_DIR)/report.json \
		-counters load.traces,graph.interfaces,graph.routers,refine.votes_cast

# Short fuzzing burst over every parser fuzz target. Each target needs
# its own invocation: -fuzz must match exactly one function per package
# (traceroute has three). Seed corpora include faultio-derived truncated,
# corrupted, and garbled variants, so even a short burst revisits the
# fault classes the loaders must survive. The two graph-builder targets cap
# minimization: their oracle ranges over maps, so block counts jitter from
# run to run and the engine would otherwise spend the whole burst
# re-running one "interesting" input. The provenance, payload-reader and
# refinement-log targets cap it too (uncapped, a 6 s log burst spent its
# second half in minimization): uncapped, a cold 30 s provenance burst stalled in
# minimization after 28 k executions (capped, 15 s reach 300 k), and a
# 20 s reader burst after 88 k (capped, 15 s reach 200 k).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/alias -run '^$$' -fuzz '^FuzzReadNodes$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bgp -run '^$$' -fuzz '^FuzzReadRoutes$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mrt -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rir -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ixp -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pfx2as -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/itdk -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/traceroute -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/traceroute -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/traceroute -run '^$$' -fuzz '^FuzzJSONLDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzAddTraceDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzAppendDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzImageDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzJournalDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/prov -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x

# Decision-provenance smoke: run the quickstart topology with
# -provenance on, check the prov.* aggregates reached the run report,
# print the artifact summary, query the first annotated address through
# explain, and diff the artifact against itself expecting zero drift —
# the determinism contract exercised end-to-end through the real CLI.
# Then the derived path: a plain checkpointed run capped at two
# iterations, resumed with -provenance, must explain the same decisions
# as the uninterrupted provenance run (zero drift).
EXPLAIN_DIR ?= /tmp/bdrmapit-explain-smoke
explain-smoke:
	rm -rf $(EXPLAIN_DIR)
	$(GO) run ./cmd/topogen -out $(EXPLAIN_DIR) -small -seed 7 -vps 10
	$(GO) run ./cmd/bdrmapit \
		-traces $(EXPLAIN_DIR)/traces.jsonl -rib $(EXPLAIN_DIR)/rib.txt \
		-rir $(EXPLAIN_DIR)/delegated-extended.txt -ixp $(EXPLAIN_DIR)/ixp-prefixes.txt \
		-rels $(EXPLAIN_DIR)/as-rel.txt -aliases $(EXPLAIN_DIR)/nodes.txt \
		-annotations $(EXPLAIN_DIR)/annotations.txt \
		-provenance $(EXPLAIN_DIR)/run.prov \
		-quiet-report -report-json $(EXPLAIN_DIR)/report.json
	$(GO) run ./cmd/reportcheck -report $(EXPLAIN_DIR)/report.json \
		-counters prov.routers,prov.interfaces
	$(GO) run ./cmd/explain $(EXPLAIN_DIR)/run.prov
	$(GO) run ./cmd/explain $(EXPLAIN_DIR)/run.prov \
		$$(head -1 $(EXPLAIN_DIR)/annotations.txt | cut -d' ' -f1)
	$(GO) run ./cmd/explain -diff -fail-on-drift \
		$(EXPLAIN_DIR)/run.prov $(EXPLAIN_DIR)/run.prov
	mkdir -p $(EXPLAIN_DIR)/ckpt
	$(GO) run ./cmd/bdrmapit \
		-traces $(EXPLAIN_DIR)/traces.jsonl -rib $(EXPLAIN_DIR)/rib.txt \
		-rir $(EXPLAIN_DIR)/delegated-extended.txt -ixp $(EXPLAIN_DIR)/ixp-prefixes.txt \
		-rels $(EXPLAIN_DIR)/as-rel.txt -aliases $(EXPLAIN_DIR)/nodes.txt \
		-max-iterations 2 -checkpoint-dir $(EXPLAIN_DIR)/ckpt -quiet-report
	$(GO) run ./cmd/bdrmapit \
		-traces $(EXPLAIN_DIR)/traces.jsonl -rib $(EXPLAIN_DIR)/rib.txt \
		-rir $(EXPLAIN_DIR)/delegated-extended.txt -ixp $(EXPLAIN_DIR)/ixp-prefixes.txt \
		-rels $(EXPLAIN_DIR)/as-rel.txt -aliases $(EXPLAIN_DIR)/nodes.txt \
		-checkpoint-dir $(EXPLAIN_DIR)/ckpt -resume \
		-provenance $(EXPLAIN_DIR)/run-resumed.prov -quiet-report
	$(GO) run ./cmd/explain -diff -fail-on-drift \
		$(EXPLAIN_DIR)/run.prov $(EXPLAIN_DIR)/run-resumed.prov

# Serving-daemon smoke: infer two snapshots over simnet, boot the real
# bdrmapitd binary, byte-equality-sweep every annotation line through
# /v1/lookup, hot-swap via SIGHUP under sustained verified load (zero
# failed or cross-generation-inconsistent responses allowed), refuse a
# corrupt reload, drain cleanly on SIGTERM — plus the overload variant
# proving shed-not-fail under admission pressure.
serve-smoke:
	$(GO) test ./cmd/bdrmapitd -run '^TestServeSmoke$$|^TestOverloadSheds$$' -count=1 -v

# Crash-injection matrix: SIGKILL the real CLI at seeded checkpoint
# (iteration-0 and final snapshots) and output-rename points, resume
# from the snapshot at a different worker count, and require
# byte-identical annotations with no torn output file. This is the executable proof behind the -checkpoint-dir/-resume
# durability claims.
crash-smoke:
	$(GO) test ./cmd/bdrmapit -run '^TestCrashResume' -count=1 -v

# Continuous-ingest smoke, in two halves. First the crash matrix: the
# real bdrmapit-ingest binary is SIGKILLed at seeded points spanning
# every intake stage (journal appends, absorbed-copy and output
# renames, bootstrap checkpoints and the delta run's one snapshot, the
# Builder image), then rerun, with the delta≡full equivalence oracle
# armed or from the image alone, and a state directory an older build
# left mid-delta is recovered. Second, a shell-driven session: split a simnet corpus into a
# base and three batches, feed them plus one poison batch through the
# real CLI, and require the published annotations byte-identical to a
# from-scratch run over the merged corpus with exactly one quarantined
# batch (reportcheck's -allow-quarantined states the allowance
# precisely); then a batchless restart without the oracle must load the
# Builder image and republish the same bytes.
INGEST_DIR ?= /tmp/bdrmapit-ingest-smoke
ingest-smoke:
	$(GO) test ./cmd/bdrmapit-ingest -run '^TestIngestCrashMatrix$$|^TestIngestRecoversRetiredDeltaBase$$|^TestIngestCLISession$$' -count=1 -v
	rm -rf $(INGEST_DIR)
	$(GO) run ./cmd/topogen -out $(INGEST_DIR) -small -seed 7 -vps 10
	total=$$(wc -l < $(INGEST_DIR)/traces.jsonl); \
	base=$$((total * 3 / 5)); third=$$(((total - base + 2) / 3)); \
	head -n $$base $(INGEST_DIR)/traces.jsonl > $(INGEST_DIR)/base.jsonl; \
	tail -n +$$((base + 1)) $(INGEST_DIR)/traces.jsonl | head -n $$third > $(INGEST_DIR)/batch-1.jsonl; \
	tail -n +$$((base + third + 1)) $(INGEST_DIR)/traces.jsonl | head -n $$third > $(INGEST_DIR)/batch-2.jsonl; \
	tail -n +$$((base + 2 * third + 1)) $(INGEST_DIR)/traces.jsonl > $(INGEST_DIR)/batch-3.jsonl; \
	echo "this is not a traceroute record" > $(INGEST_DIR)/poison.jsonl
	$(GO) run ./cmd/bdrmapit-ingest -state $(INGEST_DIR)/state \
		-traces $(INGEST_DIR)/base.jsonl -rib $(INGEST_DIR)/rib.txt \
		-rir $(INGEST_DIR)/delegated-extended.txt -ixp $(INGEST_DIR)/ixp-prefixes.txt \
		-rels $(INGEST_DIR)/as-rel.txt -aliases $(INGEST_DIR)/nodes.txt \
		-batch $(INGEST_DIR)/batch-1.jsonl,$(INGEST_DIR)/batch-2.jsonl,$(INGEST_DIR)/poison.jsonl,$(INGEST_DIR)/batch-3.jsonl \
		-verify-delta -annotations $(INGEST_DIR)/annotations.txt \
		-quiet-report -report-json $(INGEST_DIR)/report.json
	$(GO) run ./cmd/bdrmapit \
		-traces $(INGEST_DIR)/base.jsonl,$(INGEST_DIR)/batch-1.jsonl,$(INGEST_DIR)/batch-2.jsonl,$(INGEST_DIR)/batch-3.jsonl \
		-rib $(INGEST_DIR)/rib.txt -rir $(INGEST_DIR)/delegated-extended.txt \
		-ixp $(INGEST_DIR)/ixp-prefixes.txt -rels $(INGEST_DIR)/as-rel.txt \
		-aliases $(INGEST_DIR)/nodes.txt \
		-annotations $(INGEST_DIR)/oracle.txt -quiet-report
	cmp $(INGEST_DIR)/annotations.txt $(INGEST_DIR)/oracle.txt
	$(GO) run ./cmd/reportcheck -report $(INGEST_DIR)/report.json \
		-allow-quarantined 1 -counters ingest.absorbed
	test $$(ls $(INGEST_DIR)/state/quarantine/*.reason | wc -l) -eq 1
	rm $(INGEST_DIR)/annotations.txt
	$(GO) run ./cmd/bdrmapit-ingest -state $(INGEST_DIR)/state \
		-traces $(INGEST_DIR)/base.jsonl -rib $(INGEST_DIR)/rib.txt \
		-rir $(INGEST_DIR)/delegated-extended.txt -ixp $(INGEST_DIR)/ixp-prefixes.txt \
		-rels $(INGEST_DIR)/as-rel.txt -aliases $(INGEST_DIR)/nodes.txt \
		-annotations $(INGEST_DIR)/annotations.txt \
		-quiet-report -report-json $(INGEST_DIR)/recover.json
	$(GO) run ./cmd/reportcheck -report $(INGEST_DIR)/recover.json -counters ingest.image_loaded
	cmp $(INGEST_DIR)/annotations.txt $(INGEST_DIR)/oracle.txt

# CPU/heap profiles of a full ladder-rung pipeline run (RUNG as above;
# M is the rung the refinement optimizations were tuned on), for pprof
# inspection:
#   go tool pprof -top profiles/bench-M.cpu.pprof
#   go tool pprof -top -sample_index=alloc_space profiles/bench-M.mem.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/benchrun -rung $(RUNG) -workers $(BENCH_WORKERS) \
		-out profiles/BENCH_$(RUNG).json \
		-cpuprofile profiles/bench-$(RUNG).cpu.pprof \
		-memprofile profiles/bench-$(RUNG).mem.pprof

# Profiles of the micro-benchmark suite (the pre-ladder target).
profile-micro:
	mkdir -p profiles
	$(GO) test -short -run XXX -bench 'BenchmarkRefineWorkers|BenchmarkRefineRecorder' \
		-cpuprofile profiles/refine.cpu.pprof -memprofile profiles/refine.mem.pprof .
	$(GO) test -short -run XXX -bench BenchmarkInferenceWorkers \
		-cpuprofile profiles/inference.cpu.pprof -memprofile profiles/inference.mem.pprof .
	$(GO) test -run XXX -bench BenchmarkBuildGraph -o profiles/core.test \
		-cpuprofile profiles/construct-graph.cpu.pprof -memprofile profiles/construct-graph.mem.pprof ./internal/core
