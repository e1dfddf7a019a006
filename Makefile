.PHONY: all build test check validate trace clean

all: build

build:
	dune build

test:
	dune runtest

# CI entry point: build, then run the tier-1 suite single-domain and
# multi-domain so the determinism guarantee (parallel == sequential, see
# test/test_parallel.ml) is exercised on every run.  The benchmark's
# self-test runs each workload on a tiny context and checks its gates, so
# a change that breaks them fails here rather than in a benchmark run.
# Each pass draws its own QCheck seed from /dev/urandom, prints it and
# exports it as QCHECK_SEED, so a failing or hanging property run can be
# replayed with that seed.  The property tests also run at two fixed
# QCheck seeds that once drew a placement that never finished, under an
# address-space limit so a regression fails instead of exhausting the
# machine.
check: build
	for jobs in 1 4; do \
	  seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	  echo "make check: ICACHE_JOBS=$$jobs QCHECK_SEED=$$seed dune runtest --force"; \
	  ICACHE_JOBS=$$jobs QCHECK_SEED=$$seed dune runtest --force || exit 1; \
	done
	for seed in 303146471 807996100; do \
	  (ulimit -v 4000000 && QCHECK_SEED=$$seed _build/default/test/test_properties.exe) || exit 1; \
	done
	$(MAKE) validate
	bash benchmark/run.sh --self-test

# End-to-end check of the structured output path: run the full repro as
# JSON and make sure every report parses back and the schema-v5 run
# manifest holds (exactly run/stages/batch/metrics; every stage has
# count >= 1 and seconds >= 0 with unique names; every metrics counter is
# non-negative and every memo's hits + misses = lookups; histogram
# percentiles monotone and inside [min, max]; every batch field equals
# its batch.* counter and cache_hits + simulated <= members; the GC
# sample non-negative).  The same runs record a span trace (--trace),
# which is then validated too: begin/end balanced per track, durations
# non-negative, no unclosed spans, and trace-summary reads it through the
# same span fold.  Run single- and multi-domain so the fused batch
# replay, the parallel staged layout builds and the per-worker trace
# tracks are validated under both fan-out modes.  Last, `repro --out`
# writes one report plus a bare manifest.json, which goes through
# validate's bare-manifest path.  Finally the text transcript is rendered
# at one and four domains and compared byte for byte, so a result that
# depends on scheduling fails here.  Last, the full-size transcript
# (`repro --words 1000000`, two domains) must hash to the MD5 pinned in
# test/golden/repro_1m.md5, and a 1M-word sweep over 36 geometries (four
# sizes, three associativities, three line sizes) and three levels to
# the one in test/golden/sweep_1m.md5, so every set count a replay pass
# strips its streams by is covered; a change meant to move results
# updates the pins along with the goldens.  Last, it prints the work
# ledger of the 1M-word suite (test/work_ledger.ml) for the record; the
# small-context ledger is the tier-1 gate, this one is not.
validate: build
	ICACHE_JOBS=1 _build/default/bin/icache_opt.exe repro --small --words 60000 --format json \
	  --trace _build/trace_j1.json \
	  | _build/default/bin/icache_opt.exe validate
	_build/default/bin/icache_opt.exe validate _build/trace_j1.json
	ICACHE_JOBS=4 _build/default/bin/icache_opt.exe repro --small --words 60000 --format json \
	  --trace _build/trace_j4.json \
	  | _build/default/bin/icache_opt.exe validate
	_build/default/bin/icache_opt.exe validate _build/trace_j4.json
	_build/default/bin/icache_opt.exe trace-summary _build/trace_j4.json
	_build/default/bin/icache_opt.exe repro --small --words 60000 --out _build/repro_out table1
	_build/default/bin/icache_opt.exe validate _build/repro_out/manifest.json
	ICACHE_JOBS=1 _build/default/bin/icache_opt.exe repro --small --words 60000 > _build/repro_j1.txt
	ICACHE_JOBS=4 _build/default/bin/icache_opt.exe repro --small --words 60000 > _build/repro_j4.txt
	cmp _build/repro_j1.txt _build/repro_j4.txt
	ICACHE_JOBS=2 _build/default/bin/icache_opt.exe repro --words 1000000 \
	  | md5sum | cut -d' ' -f1 > _build/repro_1m.md5
	diff test/golden/repro_1m.md5 _build/repro_1m.md5
	ICACHE_JOBS=2 _build/default/bin/icache_opt.exe sweep --words 1000000 \
	  --sizes 4,8,16,32 --assocs 1,2,4 --lines 16,32,64 --levels base,ch,opts \
	  | md5sum | cut -d' ' -f1 > _build/sweep_1m.md5
	diff test/golden/sweep_1m.md5 _build/sweep_1m.md5
	ICACHE_JOBS=2 _build/default/test/work_ledger.exe --words 1000000

# Capture a span timeline of the small repro and print its hot spans.
# The Chrome-format trace lands in _build/trace.json: load it in
# https://ui.perfetto.dev or summarize with `icache-opt trace-summary`.
trace: build
	_build/default/bin/icache_opt.exe repro --small --trace _build/trace.json
	_build/default/bin/icache_opt.exe trace-summary _build/trace.json

clean:
	dune clean
