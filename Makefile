# Local CI gate — the same checks the workflow runs.
# `make ci` must be green before merging.

CARGO ?= cargo

# Pinned seeds for the chaos suite: three distinct fault schedules,
# each fully reproducible (see README "Robustness").
CHAOS_SEEDS ?= 101 202 303

.PHONY: ci fmt clippy doc test chaos check-race prof-smoke explore-smoke conduit-smoke ledger-smoke examples ab flake asan

ci: fmt clippy doc test chaos check-race prof-smoke explore-smoke conduit-smoke ledger-smoke examples

fmt:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# The rustdoc gate: every intra-doc link resolves, to one item. Module
# docs link private items on purpose and `--document-private-items`
# renders them, so that one lint is allowed; a link to a renamed or
# deleted name still fails.
doc:
	RUSTDOCFLAGS="-D warnings -A rustdoc::private_intra_doc_links" $(CARGO) doc --workspace --no-deps --document-private-items

# The bulk-path suite runs a second time with the read cache on: the only
# configuration in which a remote `rget_slice` goes through
# `Fabric::get_cached` (run coalescing, and no allocation there either).
# The fabric's own suite runs a second time in release, the way its word
# ops ship: with `debug_assert` off.
test:
	$(CARGO) test --workspace -q
	RUPCXX_CACHE=on $(CARGO) test -q --test prop_bulk
	$(CARGO) test --release -q -p rupcxx-net

chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos seed $$seed =="; \
		RUPCXX_CHAOS_SEED=$$seed $(CARGO) test -q --test chaos_integration || exit 1; \
	done

# The rupcxx-check gate: the seeded racy corpus must flag every planted
# bug and the clean benchmarks must produce zero findings (README
# "Correctness checking") — also with the read cache enabled, where
# hits and line fills must not manufacture false findings.
check-race:
	$(CARGO) test -q --test check_corpus
	$(CARGO) test -q --test check_clean
	RUPCXX_CACHE=on $(CARGO) test -q --test check_clean

# The profiler gate: profiled GUPS + stencil runs must yield a non-empty
# critical path with >=90% of barrier wall time attributed to named wait
# states, a planted dead link must produce a flight-recorder dump with
# the final flush and retransmit attempts, and the profiler-off path
# must move bit-for-bit identical wire traffic (README "Observability").
# Its timings are `runtime.barrier_ns` and
# `trace.prof_barrier_overhead_pct` in the ledger.
prof-smoke:
	$(CARGO) test -q --test prof_integration

# The model-checking gate: bounded exhaustive exploration on two corpus
# bugs plus a clean benchmark (`smoke_` subset of explore_corpus), and
# bit-for-bit replay of every committed minimized schedule under
# tests/schedules/ (README "Model checking").
explore-smoke:
	$(CARGO) test -q --test explore_corpus smoke_
	$(CARGO) test -q --test explore_replay

# The transport-conduit gate: a 2-process GUPS run over the shm and uds
# conduits (real OS processes talking through mmap'd rings / Unix
# sockets) must match the in-process loopback checksum bit-for-bit
# (`smoke_` subset of conduit_conformance; README "Conduits"). Release
# mode keeps the whole thing under ~5 s.
conduit-smoke:
	$(CARGO) test -q --release --test conduit_conformance smoke_

# The benchmark gate: build the perf ledger the way the benchmark
# pipeline does (its own package, BENCHMARK.json's command) and run
# every workload once, short. Fails when an API the ledger uses has
# drifted in `rupcxx-net`/`rupcxx-runtime`, or when a workload's output
# check fails — here, rather than in the pipeline. `--quick` numbers are
# never comparable; the file lands in target/ledger/.
ledger-smoke:
	$(CARGO) run --release --offline --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- run --quick --out target/ledger/smoke.json

# The examples gate: the two `DistArray` programs run to completion.
# Each asserts its own result (monotone heat decay; global and per-team
# sums) and exits non-zero on a mismatch.
examples:
	$(CARGO) run -q --example heat_equation
	$(CARGO) run -q --example teams_and_dist

# A/B ledger workloads between HEAD~1 and HEAD (or AB_BASE / AB_NEW;
# `.` = the working tree): `make ab W=get_cached [PAIRS=10]`, a list
# (`W="tasks gups_agg"`) or `W=all` for BENCHMARK.json's seven — each side
# is built once for the whole list. Alternating pairs, medians, quartiles
# and the pair win count — the evidence a performance claim needs, and
# what a no-claim PR shows for every workload (see scripts/ab.sh). Not
# part of `make ci`: ten pairs at the benchmark's run length take about
# five minutes a workload.
ab:
	scripts/ab.sh "$(W)" $(PAIRS)

# The flake gate: rerun the suites that sit on the task path, the
# aggregation window (a wait for the *other* side to apply a batch), the
# counters' routing (a thread that stores plainly into a block it does
# not own loses updates when preempted), the timing-sensitive checking
# tools and the chaos and conduit suites N
# times each, pinned to one core — the schedule where a handoff that
# spins for the other side goes wrong first — print failures per suite,
# and fail if any suite failed even once: the stated rate is 0 of N.
# `make flake [N=20]`. Test binaries are built once, before the loop
# (the conduit suite in release, as `conduit-smoke` runs it). Not part
# of `make ci`: N=20 takes about seven minutes.
N ?= 20
FLAKE_SUITES = \
	"-p rupcxx-net inbox" \
	"-p rupcxx-net stats" \
	"-p rupcxx-runtime finish" \
	"-p rupcxx-runtime team" \
	"-p rupcxx-runtime collectives" \
	"-p rupcxx-runtime --test agg_window" \
	"-p rupcxx-runtime --test finish_ack" \
	"-p rupcxx rpc" \
	"--test agg_integration" \
	"--test check_clean" \
	"--test check_corpus" \
	"--test explore_corpus" \
	"--test explore_replay" \
	"--test chaos_integration" \
	"--release --test conduit_conformance" \
	"--test prop_mpi_and_events" \
	"--test trace_integration" \
	"--test prof_integration"

flake:
	@$(CARGO) test -q --workspace --no-run
	@$(CARGO) test -q --release --test conduit_conformance --no-run
	@flaky=0; \
	for suite in $(FLAKE_SUITES); do \
		failed=0; \
		for i in $$(seq $(N)); do \
			taskset -c 0 $(CARGO) test -q $$suite >/dev/null 2>&1 || failed=$$((failed + 1)); \
		done; \
		echo "flake: $$suite: $$failed/$(N) failed"; \
		[ $$failed -eq 0 ] || flaky=$$((flaky + 1)); \
	done; \
	[ $$flaky -eq 0 ] || { echo "flake: $$flaky suite(s) failed at least once"; exit 1; }

# The AddressSanitizer gate over the task path's unsafe code
# (`rupcxx_net::TaskFn` keeps a closure in the message's bytes, moves it
# out to run it and drops it in place if it never runs), over
# `Segment::new`'s (its words come from one zeroed allocation) and over
# the suites that send, run, park and drop tasks: `make asan`. `-Zsanitizer` needs
# nightly, so this is not a `make ci` gate (that one runs on stable) but a
# CI job of its own. The nightly is pinned to the build it was verified
# with (a box that has that build under another name runs
# `make asan CARGO="cargo +nightly"`); the explicit `--target` keeps build
# scripts uninstrumented.
ASAN_SUITES = \
	"-p rupcxx-net task" \
	"-p rupcxx-net segment" \
	"-p rupcxx-runtime finish" \
	"-p rupcxx-runtime event" \
	"-p rupcxx-runtime ctx" \
	"-p rupcxx-runtime --test finish_ack" \
	"-p rupcxx rpc" \
	"--test task_alloc"

asan:
	@for suite in $(ASAN_SUITES); do \
		echo "== asan: $$suite =="; \
		RUSTUP_TOOLCHAIN=nightly-2026-05-20 RUSTFLAGS=-Zsanitizer=address \
			$(CARGO) test -q --target x86_64-unknown-linux-gnu $$suite || exit 1; \
	done
