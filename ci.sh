#!/usr/bin/env bash
# CI gate for the uHD workspace.
#
#   ./ci.sh            fmt check, clippy -D warnings, release build,
#                      full test suite, rustdoc -D warnings, bench
#                      compile check
#   ./ci.sh --smoke    all of the above plus a fast run of every bench
#                      binary and example (UHD_BENCH_QUICK + tiny sizes)
set -euo pipefail
cd "$(dirname "$0")"

smoke=0
for arg in "$@"; do
    case "$arg" in
        --smoke) smoke=1 ;;
        *) echo "usage: $0 [--smoke]" >&2; exit 2 ;;
    esac
done

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

step "cargo build --release"
cargo build --release

step "cargo test -q"
cargo test -q

# Stale intra-doc links (e.g. to a deleted public type) fail here.
step "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "cargo bench --no-run"
cargo bench --no-run

if [ "$smoke" -eq 1 ]; then
    # Tiny experiment sizes: exercise every binary end-to-end in seconds.
    export UHD_TRAIN_N=80 UHD_TEST_N=40 UHD_ITERS=2 UHD_BENCH_QUICK=1
    # Pinned-scalar pass first: the fallback kernel must survive both
    # emitters even on SIMD hardware. Running it before the main loop
    # means the BENCH_*.json files left behind reflect the dispatched
    # (auto-detected) kernel, not the forced fallback.
    step "smoke: throughput + online (UHD_KERNEL=scalar)"
    UHD_KERNEL=scalar cargo run --release -q -p uhd-bench --bin throughput > /dev/null
    UHD_KERNEL=scalar cargo run --release -q -p uhd-bench --bin online > /dev/null
    for bin in table1 table2 table3 table4 table5 fig6 checkpoints ablation \
               throughput online capacity; do
        step "smoke: $bin"
        cargo run --release -q -p uhd-bench --bin "$bin" > /dev/null
    done
    # The two emitters above refreshed BENCH_throughput.json and
    # BENCH_online.json in the repo root; a bench that panicked under
    # the SIMD path or emitted malformed JSON fails here.
    step "smoke: validate BENCH_*.json perf trajectory"
    cargo run --release -q -p uhd-bench --bin validate_bench
    for ex in quickstart custom_encoder orthogonality_study hardware_report \
              signal_classification serving dynamic_learning language_id tabular \
              http_serving; do
        step "smoke: example $ex"
        cargo run --release -q --example "$ex" > /dev/null
    done
    # The same quickstart on the rematerialized item-memory backend:
    # encoders hold O(seed) state and derive rows on demand, answers
    # unchanged (the property suite proves bit-identity; this proves the
    # wiring end-to-end).
    step "smoke: example quickstart (UHD_REMAT=1)"
    UHD_REMAT=1 cargo run --release -q --example quickstart > /dev/null
    # The serving example doubles as the exposition smoke: rerun it
    # writing mid-run/end-of-run Prometheus snapshots plus the JSON
    # export, then validate them (non-empty, parseable, counters
    # monotone mid -> end, quantiles ordered).
    step "smoke: metrics exposition (serving example + validate_metrics)"
    metrics_dir="$(mktemp -d)"
    trap 'rm -rf "$metrics_dir"' EXIT
    UHD_METRICS_SNAPSHOT="$metrics_dir/serving" UHD_LOG=1 \
        cargo run --release -q --example serving > /dev/null
    cargo run --release -q -p uhd-bench --bin validate_metrics -- "$metrics_dir/serving"
    # Same exposition contract through the multi-tenant HTTP front end:
    # the example starts the std::net server on an ephemeral port,
    # round-trips classify/learn/scrape over real sockets, and writes
    # the same snapshot trio from the registry's recorder.
    step "smoke: metrics exposition (http_serving example + validate_metrics)"
    UHD_METRICS_SNAPSHOT="$metrics_dir/http" \
        cargo run --release -q --example http_serving > /dev/null
    cargo run --release -q -p uhd-bench --bin validate_metrics -- "$metrics_dir/http"
    step "smoke: criterion benches (quick mode)"
    cargo bench -q -p uhd-bench > /dev/null
fi

step "OK"
