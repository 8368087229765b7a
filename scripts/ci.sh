#!/usr/bin/env bash
# Offline-first CI for the design-while-verify reproduction.
#
# The build environment has NO network access to crates.io: every external
# dependency is vendored as a local stand-in under third_party/ and resolved
# by path in the workspace manifest. `--offline` makes cargo fail fast (with
# a clear error) instead of hanging on a registry it can never reach, and
# also guards against accidentally introducing a registry dependency.
#
# Usage: scripts/ci.sh            # fmt + clippy + release build + tier-1 tests
#        scripts/ci.sh --all     # additionally run the full workspace tests
#                                # and the bench-regression guard

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

# NN learning fans its probes out on a host-width pool: the core count
# says which path the tests below exercised.
echo "==> nproc: $(nproc)"
run cargo fmt --check
# Lint gate: warnings are errors across the whole workspace. Every library
# and binary root forbids unsafe code and libraries warn on missing docs, so
# the one unsafe code left (an allocator shim in a test) must carry
# `// SAFETY:` comments. Panic freedom (R2) is the `#![deny(clippy::...)]`
# in the verified crate roots and the serve codec, determinism (R3) the
# disallowed types and methods of clippy.toml; each exception is a reasoned
# `#[expect(...)]`, which fails here once it no longer matches.
run cargo clippy --workspace --all-targets --offline -- -D warnings -D clippy::undocumented_unsafe_blocks
run cargo build --release --offline
# Float-hygiene and no-alloc static analysis: zero-dependency token-level
# scanner over the library code (R1 float hygiene with its interprocedural
# float-taint pass, R6 no-alloc kernels). Every exemption must be a reasoned
# `// dwv-lint: allow(...) -- <reason>` annotation; unannotated findings fail
# the build via a per-rule exit-code bitmask.
run cargo run --release --offline -p dwv-lint -- --workspace --deny all
# Falsification gate: deterministic generative sweep pitting every enclosure
# layer (interval, Bernstein, Taylor-model, flowpipe, geometry, OT, NN range,
# safety verdict) against an independent brute-force oracle. The seed is
# pinned so the run is byte-reproducible; any violation prints a replay
# token (`dwv-check --replay 0x...`) and fails the build.
run cargo run --release --offline -p dwv-check -- --seed 0xD3C0DE --budget-cases 1200
# Tier-1 gate: the root package's test suite (see ROADMAP.md).
run cargo test -q --offline

if [[ "${1:-}" == "--all" ]]; then
  run cargo test -q --workspace --offline
  # Single-CPU fallback: pinned to one core, `available_parallelism()`
  # reads 1 and NN learning runs its probes serially. It must reproduce
  # the golden files the fanned-out run above matched, and the flowpipe
  # grid golden with them.
  if command -v taskset >/dev/null; then
    run taskset -c 0 cargo test -q --offline --test golden_polar --test golden_reachnn --test golden_flow
  else
    echo "==> skip: taskset not found, single-CPU golden re-run not done"
  fi
  # Deep falsification sweep + regression corpus replay: a larger budget at
  # bigger case sizes, then every committed finding/regression seed.
  run cargo run --release --offline -p dwv-check -- --seed 0xD3C0DE --budget-cases 8000 --max-size 12 --threads 4
  run cargo run --release --offline -p dwv-check -- --corpus crates/check/corpus
  # SIMD gate: a `simd`-family falsification sweep re-checks the chunked
  # coefficient kernels (fixed 4-lane reduction order) and the pool
  # reduction against independently written oracles.
  run cargo run --release --offline -p dwv-check -- --family simd --seed 0xD3C0DE --budget-cases 5000
  # Bit-identity gate: the deterministic pool's parallel == serial promise,
  # replayed at explicit widths (2 and 4 worker threads) on top of the
  # thread-count matrix the unit tests already cover.
  run cargo test -q --release --offline -p dwv-core parallel
  run cargo run --release --offline -p dwv-check -- --family simd --seed 2 --budget-cases 2000 --threads 2
  run cargo run --release --offline -p dwv-check -- --family simd --seed 4 --budget-cases 2000 --threads 4
  # Lint-engine differential gate: random miniature workspaces (raw-float
  # helpers, a call DAG of forwarders, float-zone consumers) through the
  # interprocedural engine against the generator's float-taint ground truth,
  # with an input-order bit-identity oracle (see families/lintcheck).
  run cargo run --release --offline -p dwv-check -- --family lintcheck --seed 0xD3C0DE --budget-cases 400
  # Optimal-transport gate: LAPJV against the reference Hungarian solver on
  # clouds of up to 64 points (totals bit-identical), the objective-only
  # Wasserstein evaluation against the full one, and non-finite cost
  # matrices (see families/wasserstein).
  run cargo run --release --offline -p dwv-check -- --family wasserstein --seed 0xD3C0DE --budget-cases 3000
  # ReachNN kernel gate: NN abstraction enclosures on 1–4-input networks;
  # BernsteinAbstraction::fit bit for bit against the retired sparse fit
  # and remainder loop; the whole Bernstein abstraction (batched grid
  # pass, workspace fit, Lipschitz and gradient bounds, in-place
  # composition) bit for bit against the retired one; and
  # compose_parts_into called directly (the dense path on affine
  # arguments in their own variables, the general path on others,
  # truncation orders 1–8) bit for bit against the retired composition;
  # each on a fresh and a warm workspace (see families/nn and
  # check::reference).
  run cargo run --release --offline -p dwv-check -- --family nn --seed 0xD3C0DE --budget-cases 3000
  # Flow-step gate: OdeIntegrator::flow_step (degree-staged Picard
  # iterations, fixed point confirmed by the defect tape) bit for bit
  # against the retired unstaged step in check::reference, on random fields,
  # symbolic initial models and inputs with remainders, orders 1-5; and
  # TaylorReach::reach_from for a controller on one system after a run on
  # the other, on the same thread's workspace, bit for bit against a fresh
  # thread's run (see families/picard).
  run cargo run --release --offline -p dwv-check -- --family picard --seed 0xD3C0DE --budget-cases 3000
  # Range-memo gate: eval_interval_ws bit for bit against eval_interval,
  # and mul_truncated_into's kept terms and overflow against the split
  # product and its eval_interval, on 1-5 variables with exponents on both
  # sides of the memo's direct index, on a fresh workspace, a warm one and
  # one warmed on other domains (see families/poly).
  run cargo run --release --offline -p dwv-check -- --family poly --seed 0xD3C0DE --budget-cases 3000
  # Odd-power gate: the interval family's cubes in expressions and its
  # `x^n` draws (n = 3, 5, 7) against a double-double oracle with no
  # tolerance beyond the oracle's error (see families/interval).
  run cargo run --release --offline -p dwv-check -- --family interval --seed 0xD3C0DE --budget-cases 5000
  # Serving gate: the verification-as-a-service layer. Crate tests (frame
  # codec fuzz/property suite + server integration), the golden
  # serve-vs-batch parity suite over real TCP (ACC/Van-der-Pol/3D repro
  # configs, byte-for-byte), then a deep differential sweep of the serve
  # check family (loopback server vs in-process run_job at a different
  # pool width, randomized interleavings; see DESIGN.md §4h).
  run cargo test -q --release --offline -p dwv-serve
  run cargo test -q --release --offline --test serve_batch_parity
  run cargo run --release --offline -p dwv-check -- --family serve --seed 0x5EED --budget-cases 1500 --threads 4
  # Binary lifecycle: start a real server on an ephemeral port, run the
  # smoke client against it, ask it to drain, and require a clean exit
  # that reports the drain (force-cancel path included in the contract).
  serve_addr_file="$(mktemp -t dwv_serve_addr.XXXXXX)"
  serve_log="$(mktemp -t dwv_serve_log.XXXXXX)"
  echo "==> dwv-serve lifecycle: start, smoke, drain, clean exit"
  cargo run --release --offline -q -p dwv-serve -- \
    --addr 127.0.0.1:0 --addr-file "$serve_addr_file" > "$serve_log" &
  serve_pid=$!
  for _ in $(seq 1 50); do
    [[ -s "$serve_addr_file" ]] && break
    sleep 0.1
  done
  if [[ ! -s "$serve_addr_file" ]]; then
    echo "FAIL: dwv-serve never wrote its address file"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  serve_addr="$(cat "$serve_addr_file")"
  run cargo run --release --offline -q -p dwv-serve -- --smoke "$serve_addr"
  run cargo run --release --offline -q -p dwv-serve -- --drain "$serve_addr"
  if ! wait "$serve_pid"; then
    echo "FAIL: dwv-serve did not exit cleanly after drain"
    cat "$serve_log"
    exit 1
  fi
  if ! grep -q '^drained' "$serve_log"; then
    echo "FAIL: dwv-serve exited without reporting the drain"
    cat "$serve_log"
    exit 1
  fi
  rm -f "$serve_addr_file" "$serve_log"
  # End-to-end benchmark harness: unit tests plus a smoke run of every
  # workload, traced. The traced replica of each learning job sends every
  # query to the verifier (`learn_with_restarts`) while the porcelain
  # reuses the previous iteration's answers, so its byte check against the
  # porcelain is a per-job reuse-vs-no-reuse differential.
  run cargo test --release --offline --manifest-path bench_e2e/Cargo.toml
  # Overflow gate: the soundness-critical kernels must be free of silent
  # integer wraparound (exponent packing, tensor offsets, binomial tables).
  echo '==> RUSTFLAGS="-C overflow-checks=on" cargo test -q --offline -p dwv-interval -p dwv-taylor'
  RUSTFLAGS="-C overflow-checks=on" cargo test -q --offline -p dwv-interval -p dwv-taylor
  # Perf gate: fail if the headline Algorithm-1 iteration timer regressed
  # more than 10% against the committed BENCH_core.json. bench_core --check
  # runs tracing-off, so this also guards the disabled-path obs overhead.
  run cargo run --release --offline -p dwv-bench --bin bench_core -- --check
  # Observability smoke: a full ACC pipeline run streaming a JSONL trace,
  # validated line-by-line (reserved fields, span identity/nesting, span
  # timings for the train/verify/simulate phases, the learner's query and
  # reuse counters, remainder-width metrics).
  trace_file="$(mktemp -t dwv_trace.XXXXXX.jsonl)"
  folded_file="$(mktemp -t dwv_folded.XXXXXX.txt)"
  flight_file="$(mktemp -t dwv_flight.XXXXXX.jsonl)"
  trap 'rm -f "$trace_file" "$folded_file" "$flight_file"' EXIT
  echo "==> DWV_TRACE=$trace_file cargo run --release --offline --example profile_acc"
  DWV_TRACE="$trace_file" cargo run --release --offline --example profile_acc
  run cargo run --release --offline -p dwv-bench --bin trace_check -- "$trace_file"
  # Trace analytics gate: the analyzer must find the run's critical path
  # (the 500-rollout assessment outlasts the whole learning phase of this
  # run) and export flamegraph-compatible folded stacks.
  run cargo run --release --offline -p dwv-trace -- "$trace_file" \
    --require-critical simulate --folded "$folded_file"
  # Flight-recorder gate: a forced mid-run panic must leave a parseable
  # dump whose last events cover the still-open panicking span.
  echo "==> DWV_FLIGHT=$flight_file DWV_FORCE_PANIC=1 profile_acc (panic expected)"
  if DWV_FLIGHT="$flight_file" DWV_FORCE_PANIC=1 \
    cargo run --release --offline --example profile_acc >/dev/null 2>&1; then
    echo "FAIL: DWV_FORCE_PANIC=1 run exited 0 (expected a panic)"
    exit 1
  fi
  run cargo run --release --offline -p dwv-trace -- --check-flight "$flight_file"
fi

echo "CI OK"
