# Convenience wrapper around dune. `make check` is what CI runs.

.PHONY: all build test check fmt bench bench-smoke ab serve-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

# Formatting is opt-in: the check passes through when ocamlformat is not
# installed so `make check` works in minimal containers.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt --auto-promote; \
	else \
		echo "ocamlformat not installed; skipping fmt"; \
	fi

check: build test

# Full regeneration + Bechamel timings; machine-readable ns/run lands in
# BENCH.json. bench-smoke is the seconds-scale CI variant: info-only
# experiment targets at a reduced measurement budget, gated targets at
# full budget, written to BENCH.smoke.json and checked against the
# committed BENCH.json (kernel:* fails on a >25% regression; the
# sweep-level targets — table4, ablation:threshold, sweep:ablation-warm,
# sweep:regions-warm, hardware-validation, sweep:suite-graph,
# serve:warm-submit, serve:overlap-dedup, serve:sharded-cold — on a
# >40% one).
bench:
	dune exec bench/main.exe -- --json BENCH.json

bench-smoke:
	dune exec bench/main.exe -- --smoke --json BENCH.smoke.json
	dune exec bench/check.exe -- BENCH.json BENCH.smoke.json

# Interleaved end-to-end A/B against another revision: perfbench runs in a
# detached worktree of BASE (under .bench_build/ab/) and in this tree, for
# PAIRS seeds from SEED, alternating which side goes first; prints medians,
# quartiles and pairs won per metric. See bench/ab.py.
ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" -a -n "$(PAIRS)" -a -n "$(SEED)" \
	  || { echo "usage: make ab BASE=<rev> WORKLOAD=<w> PAIRS=<n> SEED=<s>" >&2; exit 2; }
	python3 bench/ab.py --base $(BASE) --workload $(WORKLOAD) \
	  --pairs $(PAIRS) --seed $(SEED)

# End-to-end smoke of the serve daemon: capture a direct `vliw_vp all`
# run (and a direct frontier sweep), then drive the daemon with the load
# generator in-process (--workers 0) and at two shard counts (--workers 1
# and --workers 4) over the same (now warm) on-disk cache. Each round
# first submits the regions:frontier artifact and byte-compares it
# against the direct capture; serve_load then asserts every client's
# stream is byte-identical to the direct capture, a repeat wave executes
# zero new payload jobs, and a burst past the client quota is rejected
# with structured errors. All scratch state (sockets, cache, stats,
# telemetry) stays under _serve_ci/.
serve-smoke: build
	rm -rf _serve_ci && mkdir -p _serve_ci
	./_build/default/bin/vliw_vp.exe all --jobs 4 --cache-dir _serve_ci/cache \
	  > _serve_ci/expected.txt
	( ./_build/default/bin/vliw_vp.exe frontier --jobs 4 \
	    --cache-dir _serve_ci/cache; echo ) > _serve_ci/expected-frontier.txt
	@for w in 0 1 4; do \
	  echo "== serve-smoke: --workers $$w =="; \
	  ( ./_build/default/bin/vliw_vp.exe serve --socket _serve_ci/d$$w.sock \
	      --workers $$w --jobs 1 --client-quota 4 --node-cache 256 \
	      --cache-dir _serve_ci/cache \
	      --stats-file _serve_ci/stats-w$$w.json & \
	    trap 'kill $$! 2>/dev/null' EXIT; \
	    for i in $$(seq 1 100); do [ -S _serve_ci/d$$w.sock ] && break; sleep 0.1; done; \
	    ./_build/default/bin/vliw_vp.exe submit --socket _serve_ci/d$$w.sock \
	      regions:frontier > _serve_ci/frontier-w$$w.txt && \
	    cmp _serve_ci/expected-frontier.txt _serve_ci/frontier-w$$w.txt && \
	    ./_build/default/bench/serve_load.exe --socket _serve_ci/d$$w.sock --smoke \
	      --expect _serve_ci/expected.txt \
	      --telemetry-out _serve_ci/serve-telemetry-w$$w.json \
	      --shutdown && wait $$! ) || exit 1; \
	done

clean:
	dune clean
	rm -rf _cache _serve_ci
