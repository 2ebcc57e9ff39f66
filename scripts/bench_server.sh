#!/usr/bin/env bash
# Regenerates BENCH_server.json: the staged-runtime load sweep (open-loop
# latency-vs-load against the M/M/1 prediction, the shed-on-full vs
# deadline-aware admission-policy head-to-head with its M/M/1/K shed-rate
# cross-check, the streaming-ASR sweep over chunk size x offered load, the
# sharded-cluster sweep over replica count x routing policy, the
# multi-tenant weighted-admission sweep over offered load, the loopback TCP
# front-end sweep over closed-loop client counts, plus closed-loop
# saturation throughput). Recipe in EXPERIMENTS.md.
#
# The bench writes to BENCH_server.json.tmp; the result replaces
# BENCH_server.json only once it is non-empty, parses, carries every sweep
# and passes every check below. A crashed, interrupted or failing run
# exits non-zero and leaves the committed file untouched.
#
# Usage: scripts/bench_server.sh [QUERIES] [WORKERS]
#   QUERIES  arrivals per load point (default 100)
#   WORKERS  workers per heavy stage for the saturation run (default 4)
set -euo pipefail
cd "$(dirname "$0")/.."

QUERIES="${1:-100}"
WORKERS="${2:-4}"
OUT=BENCH_server.json
TMP="$OUT.tmp"
trap 'rm -f "$TMP"' EXIT

cargo build --release -p sirius-bench --bin bench_server
./target/release/bench_server --queries "$QUERIES" --workers "$WORKERS" > "$TMP"

# The bench itself verifies that staged and admitted-query outputs are
# bit-identical to the serial pipeline; fail loudly if either check, or the
# policy-sweep accounting identity, regressed.
python3 - "$TMP" <<'EOF'
import json, os, sys
path = sys.argv[1]
assert os.path.getsize(path) > 0, f"{path} is empty"
with open(path) as f:
    bench = json.load(f)
sweeps = ["saturation", "policy_sweep", "streaming_sweep", "cluster_sweep",
          "tenant_sweep", "net_sweep"]
missing = [key for key in sweeps if key not in bench]
assert not missing, f"missing sweeps: {missing}"
assert bench["saturation"]["outputs_match_serial"] is True, "saturation outputs diverged from serial"
sweep = bench["policy_sweep"]
assert sweep["outputs_match_serial"] is True, "policy-sweep outputs diverged from serial"
assert sweep["accounting_balanced"] is True, "admission ledger did not balance"
stream = bench["streaming_sweep"]
assert stream["outputs_match_serial"] is True, "streaming outputs diverged from serial"
assert stream["from_end_p50_below_serial_floor_at_low_rho"] is True, \
    "streaming from-end p50 did not beat the serial sum-of-stages floor at rho <= 0.8"
assert all(p["partials_per_query"] > 0 for p in stream["points"]), \
    "a streaming point emitted no partial hypotheses"
cluster = bench["cluster_sweep"]
assert cluster["outputs_match_serial"] is True, \
    "sharded cluster outputs diverged from serial"
assert cluster["accounting_balanced"] is True, \
    "merged cluster telemetry did not account for every query exactly once"
assert cluster["least_sojourn_p99_le_round_robin_at_peak"] is True, \
    "least-sojourn p99 exceeded the round-robin noise bound at the peak routing load"
tenant = bench["tenant_sweep"]
assert tenant["outputs_match_serial"] is True, \
    "tenant-sweep outputs diverged from serial"
assert tenant["accounting_balanced"] is True, \
    "per-tenant admission ledger did not balance"
assert tenant["premium_protected_under_overload"] is True, \
    "premium p99 or shed ordering broke under rho = 1.5 overload"
net = bench["net_sweep"]
assert net["outputs_match_serial"] is True, \
    "remote answers over the TCP front-end diverged from serial"
assert net["frames_balanced"] is True, \
    "net frame accounting did not balance (frames_in != frames_out != queries)"
assert net["ledger_balanced"] is True, \
    "per-tenant ledger did not balance across remote submissions"
assert net["scrape_ok"] is True, \
    "GET /metrics on the serving socket did not return valid Prometheus text"
assert len(net["points"]) >= 4 and all(p["qps"] > 0 for p in net["points"]), \
    "net sweep is missing closed-loop client points"
print("==> outputs_match_serial and accounting checks passed")
EOF
mv "$TMP" "$OUT"
echo "==> wrote $OUT"
