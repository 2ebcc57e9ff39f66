#!/usr/bin/env bash
# Full repo gate: formatting, lints, release build, tests.
# Everything runs offline against the vendored shim crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo build --release -p sirius-bench --bin bench_server --bin bench_obs"
cargo build --release -p sirius-bench --bin bench_server --bin bench_obs

echo "==> cargo test --workspace --release -q (every crate's unit and integration tests)"
# Includes the bit-identity gates (staged, streaming, cluster and remote,
# each against serial), admission, tenant QoS, observability,
# wire-codec and network front-end suites.
cargo test --workspace --release -q

echo "==> cargo test --release --offline --manifest-path perfbench/Cargo.toml (benchmark helper tests)"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> all checks passed"
