.PHONY: all build test check fuzz bench bench-json compare trace-demo \
	serve-smoke corpus sweep audit corpus-smoke clean

all: build

build:
	dune build

test: build
	dune runtest

# Tier-1 gate plus a smoke run of the JSON bench harness: builds, runs the
# full test suite, and verifies `--json` still emits a file the comparator
# can parse (smoke sizes, so this stays fast).
check: build
	dune runtest
	dune exec bench/main.exe -- --json /tmp/bagcqc-bench-smoke.json --smoke
	dune exec bench/compare.exe -- /tmp/bagcqc-bench-smoke.json /tmp/bagcqc-bench-smoke.json

# Differential fuzzing (DESIGN.md §4e): every suite, deterministic in
# SEED, at a heavier budget than the in-suite smoke tests.  On a finding
# the shrunk case and its replay line land in fuzz-repro-<suite>.txt.
FUZZ_ITERS ?= 10000
SEED ?= 42

fuzz: build
	dune exec bin/fuzz.exe -- --iters $(FUZZ_ITERS) --seed $(SEED)

# Full experiment harness (tables + bechamel timings).  With JSON=1 it
# instead runs the JSON timing suites (including the jobs-scaling `par`
# suite, which rides in the lp file) and gates them against the
# checked-in baselines (what CI runs).  BENCH_OUT picks where the fresh
# JSON lands, so CI can keep it as an artifact.
BENCH_OUT ?= /tmp

bench: build
ifeq ($(JSON),1)
	mkdir -p $(BENCH_OUT)
	dune exec bench/main.exe -- --json $(BENCH_OUT)/bagcqc-bench-new-lp.json --only lp
	dune exec bench/compare.exe -- BENCH_lp.json $(BENCH_OUT)/bagcqc-bench-new-lp.json
	dune exec bench/main.exe -- --json $(BENCH_OUT)/bagcqc-bench-new-hom.json --only hom
	dune exec bench/compare.exe -- BENCH_hom.json $(BENCH_OUT)/bagcqc-bench-new-hom.json
else
	dune exec bench/main.exe
endif

# Regenerate the checked-in bench baselines.
bench-json: build
	dune exec bench/main.exe -- --json BENCH_lp.json --only lp
	dune exec bench/main.exe -- --json BENCH_hom.json --only hom

# End-to-end daemon smoke (what CI's serve-smoke job runs): a real
# `bagcqc serve` process driven over its Unix socket by `bagcqc client`
# — cold and cached checks, typed protocol errors, SIGTERM drain, a
# restart on the same socket path, the telemetry endpoints and the
# /readyz flip mid-drain.  See scripts/serve_smoke.sh.
serve-smoke: build
	scripts/serve_smoke.sh

# Regenerate the checked-in evaluation corpora (DESIGN.md §4j).  The
# generator is deterministic in CORPUS_SEED, so this is reproducible:
# same seed, byte-identical files.
CORPUS_SEED ?= 42

corpus: build
	dune exec bench/sweep.exe -- gen --kind check --seed $(CORPUS_SEED) \
	  --total 10000 -o corpus/check-10k.jsonl
	dune exec bench/sweep.exe -- gen --kind iip --seed $(CORPUS_SEED) \
	  --total 2000 -o corpus/iip-2k.jsonl

# Full fleet sweep over the checked-in corpora: throughput + tail
# latency at jobs 1 and 4, then the audit (the production path at jobs 1
# and 4, every verdict against the corpus label) with every certificate
# re-checked exactly.  Tables via
# scripts/sweep_tables.py; see EXPERIMENTS.md for a recorded run.
SWEEP_OUT ?= /tmp/bagcqc-sweep.jsonl

sweep: build
	dune exec bench/sweep.exe -- run corpus/check-10k.jsonl --jobs 1 \
	  --label check-10k-j1 -o $(SWEEP_OUT)
	dune exec bench/sweep.exe -- run corpus/check-10k.jsonl --jobs 4 \
	  --label check-10k-j4 -o $(SWEEP_OUT) --append
	dune exec bench/sweep.exe -- run corpus/iip-2k.jsonl --jobs 1 \
	  --label iip-2k-j1 -o $(SWEEP_OUT) --append
	dune exec bench/sweep.exe -- run corpus/iip-2k.jsonl --jobs 4 \
	  --label iip-2k-j4 -o $(SWEEP_OUT) --append
	dune exec bench/sweep.exe -- audit corpus/check-10k.jsonl \
	  -o $(SWEEP_OUT) --append
	dune exec bench/sweep.exe -- audit corpus/iip-2k.jsonl \
	  -o $(SWEEP_OUT) --append
	python3 scripts/sweep_tables.py $(SWEEP_OUT)

# The correctness audit alone over the checked-in corpora: the
# production path at jobs 1 and 4, every verdict against the corpus
# label, every certificate re-checked exactly.  Fails on any mismatch.
AUDIT_OUT ?= /tmp/bagcqc-audit.jsonl

audit: build
	dune exec bench/sweep.exe -- audit corpus/check-10k.jsonl -o $(AUDIT_OUT)
	dune exec bench/sweep.exe -- audit corpus/iip-2k.jsonl \
	  -o $(AUDIT_OUT) --append
	python3 scripts/sweep_tables.py --summary-only $(AUDIT_OUT)

# CI-sized version: a small freshly generated corpus, sweeps at jobs 1
# and 4, the audit, and the analysis script (which exits
# nonzero on any verdict mismatch or certificate failure).
SMOKE_OUT ?= /tmp/bagcqc-sweep-smoke

corpus-smoke: build
	mkdir -p $(SMOKE_OUT)
	dune exec bench/sweep.exe -- gen --kind check --seed $(CORPUS_SEED) \
	  --total 400 -o $(SMOKE_OUT)/check-smoke.jsonl
	dune exec bench/sweep.exe -- gen --kind iip --seed $(CORPUS_SEED) \
	  --total 120 -o $(SMOKE_OUT)/iip-smoke.jsonl
	dune exec bench/sweep.exe -- run $(SMOKE_OUT)/check-smoke.jsonl \
	  --jobs 1 --label smoke-check-j1 -o $(SMOKE_OUT)/sweep.jsonl
	dune exec bench/sweep.exe -- run $(SMOKE_OUT)/check-smoke.jsonl \
	  --jobs 4 --label smoke-check-j4 -o $(SMOKE_OUT)/sweep.jsonl --append
	dune exec bench/sweep.exe -- run $(SMOKE_OUT)/iip-smoke.jsonl \
	  --jobs 1 --label smoke-iip-j1 -o $(SMOKE_OUT)/sweep.jsonl --append
	dune exec bench/sweep.exe -- run $(SMOKE_OUT)/iip-smoke.jsonl \
	  --jobs 4 --label smoke-iip-j4 -o $(SMOKE_OUT)/sweep.jsonl --append
	dune exec bench/sweep.exe -- audit $(SMOKE_OUT)/check-smoke.jsonl \
	  -o $(SMOKE_OUT)/sweep.jsonl --append
	python3 scripts/sweep_tables.py $(SMOKE_OUT)/sweep.jsonl

# Observability demo: run a traced containment check and print the span
# tree, cache traffic, and histogram percentiles back out of the file.
trace-demo: build
	dune exec bin/main.exe -- check 'R(x,y), R(y,z), R(z,x)' 'R(u,v), R(u,w)' \
	  --trace /tmp/bagcqc-trace-demo.json
	dune exec bin/main.exe -- report /tmp/bagcqc-trace-demo.json

# Compare a fresh run against the checked-in baselines.
compare: build
	mkdir -p $(BENCH_OUT)
	dune exec bench/main.exe -- --json $(BENCH_OUT)/bagcqc-bench-new-lp.json --only lp
	dune exec bench/compare.exe -- BENCH_lp.json $(BENCH_OUT)/bagcqc-bench-new-lp.json
	dune exec bench/main.exe -- --json $(BENCH_OUT)/bagcqc-bench-new-hom.json --only hom
	dune exec bench/compare.exe -- BENCH_hom.json $(BENCH_OUT)/bagcqc-bench-new-hom.json

clean:
	dune clean
