# Convenience targets. Tier-1 is `make check` (= dune build && dune runtest);
# `dune runtest` includes the bench smoke (`bench/main.exe --quick`).

.PHONY: all build test check verify fuzz fmt fmt-check bench-smoke bench-json perf perf-compare faults guard multilevel floorplan serve soak chaos clean

all: build

build:
	dune build @all

test:
	dune runtest

check: build test verify

# Independent-oracle validation (`prpart check`): every built-in library
# design and every XML design under examples/designs must pass the full
# pipeline verification (solve + floorplan + bitstreams + transitions).
verify: build
	@for f in examples/designs/*.xml; do \
	  echo "== prpart check $$f"; \
	  dune exec bin/prpart.exe -- check "$$f" || exit 1; \
	done
	@for d in video-receiver running-example; do \
	  echo "== prpart check $$d"; \
	  dune exec bin/prpart.exe -- check "$$d" || exit 1; \
	done
	@echo "== prpart check (budget-constrained, multi-region)"
	dune exec bin/prpart.exe -- check video-receiver --budget 6900,62,150
	dune exec bin/prpart.exe -- check examples/designs/vision-pipeline.xml --budget 4000,70,60
	dune exec bin/prpart.exe -- check examples/designs/sdr-modem.xml --budget 2600,30,45
	dune exec bin/prpart.exe -- check examples/designs/adaptive-router.xml --budget 2200,20,8

# Differential fuzzing plus the seeded mutation-kill matrix: 200 random
# designs cross-checked seq-vs-par / reported-vs-direct / oracle-vs-reported,
# and nine seeded corruptions that must each fire exactly their code.
fuzz: build
	dune exec bin/prpart.exe -- fuzz --count 200 --kills

# Formatting is governed by .ocamlformat. The container does not ship the
# ocamlformat binary, so both targets degrade to a no-op with a notice when
# it is absent rather than failing the build.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed; skipping fmt"; \
	fi

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping fmt-check"; \
	fi

bench-smoke:
	dune exec bench/main.exe -- --quick

# Machine-readable performance artefact (allocator moves/sec, engine
# solve latency, sweep throughput over the host_domains scaling matrix,
# serve latency per cache outcome). Writes BENCH_core.json and appends the same metrics
# to BENCH_history.jsonl for regression tracking.
bench-json:
	dune exec bench/main.exe -- bench-json

# Regression gate: regenerate the bench metrics (appending a history
# entry) and diff the two most recent BENCH_history.jsonl entries under
# the Regress tolerance rules. Exits non-zero on any regression. Pin a
# fixed baseline with PRPART_BENCH_BASELINE=<file> (a history entry or
# a saved BENCH_core.json).
perf-compare: bench-json
	dune exec bench/main.exe -- bench-compare

# Full Bechamel suite, gated on the smoke (which asserts parallel
# determinism and live delta kernels before any numbers are reported),
# followed by the regression diff against the bench history.
perf: bench-smoke
	dune exec bench/main.exe -- perf
	$(MAKE) perf-compare

# Fault-injection sweep: resilient runtime over the reference schemes,
# plus the recovery-policy comparison (see DESIGN.md, fault model).
faults:
	dune exec bench/main.exe -- faults

# Resilience suite: the Prguard unit/property tests plus the anytime
# quality experiment (eval-cap sweep, degradation ladder, wall-clock
# deadline, torn-artefact recovery). See DESIGN.md §8.
guard: build
	dune exec test/test_guard.exe
	dune exec bench/main.exe -- guard

# Prscale suite: the multilevel unit/property tests, then the scaling
# experiment — exact and anneal expire a 2 s deadline on the seeded
# 200-module huge design while the multilevel backend solves it
# near-interactively, feasible and oracle-clean, and the 50-400-module
# size curve of the compatibility analysis and the solve. See DESIGN.md §12.
multilevel: build
	dune exec test/test_multilevel.exe
	dune exec bench/main.exe -- multilevel

# Placement-aware suite: the floorplan unit/property tests (placer,
# estimator, verify-oracle re-derivation), then the experiment pitting
# the placement-aware search against the post-hoc feedback loop on the
# fragmentation stress design. See DESIGN.md §13.
floorplan: build
	dune exec test/test_floorplan.exe
	dune exec bench/main.exe -- floorplan

# Partitioning daemon on a local Unix socket with a persistent result
# cache (talk to it with `nc -U prserve.sock`; Ctrl-C drains). See
# DESIGN.md §11.
serve: build
	dune exec bin/prpart.exe -- serve --socket prserve.sock \
	  --cache-dir prserve-cache --metrics prserve-metrics.txt --stats

# Prserve acceptance soak: the serve test suite, then >= 1000 requests
# from concurrent clients with a ~50% duplicate mix through an
# in-process daemon — zero crashes, cache hit rate > 0.4, and cached
# replies cross-checked against fresh verified solves. Scale with
# PRPART_SOAK_REQUESTS.
soak: build
	dune exec test/test_serve.exe
	dune exec bench/main.exe -- serve

# Prfleet chaos acceptance: the fleet test suite, then >= 500 requests
# through the fault-tolerant client against a supervised 3-replica
# fleet sharing one cache directory while seeded chaos kills replicas
# mid-solve and mid-cache-write, tears cache files, resets connections
# and delays replies — zero lost replies, zero wrong replies, every
# casualty restarted within budget, and a cold replica serving a
# peer-written cache hit. Scale with PRPART_CHAOS_REQUESTS. See
# DESIGN.md §14.
chaos: build
	dune exec test/test_fleet.exe
	dune exec bench/main.exe -- chaos

clean:
	dune clean
