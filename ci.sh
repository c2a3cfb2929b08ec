#!/usr/bin/env bash
# Offline CI gate for the pinning reproduction workspace.
#
# Everything runs with --offline: the workspace has zero external
# dependencies by design, so a network-less container must pass this
# script end to end. The chaos suite is invoked explicitly (in addition
# to the full test run) so a fault-injection regression fails loudly
# under its own name.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> unsafe fence (one #[allow(unsafe_code)] in the workspace, at the SHA-NI call; pinning-crypto denies unsafe code, every other crate forbids it)"
allows=$(grep -rE '^[[:space:]]*#\[allow\(unsafe_code\)\]' crates src --include='*.rs' | wc -l)
[ "$allows" -eq 1 ] || { echo "expected exactly one #[allow(unsafe_code)] under crates/ and src/, found $allows"; exit 1; }
grep -qxF '#![deny(unsafe_code)]' crates/crypto/src/lib.rs || { echo "crates/crypto/src/lib.rs does not deny unsafe code"; exit 1; }
for lib in src/lib.rs crates/*/src/lib.rs; do
  [ "$lib" = crates/crypto/src/lib.rs ] && continue
  grep -qxF '#![forbid(unsafe_code)]' "$lib" || { echo "$lib does not forbid unsafe code"; exit 1; }
done

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> perfbench self-test (the repository benchmark builds against the current API; tiny sizes, output checks, metric catalogue)"
python3 perfbench/run.py --self-test

echo "==> cargo test (workspace)"
cargo test -q --workspace --offline

echo "==> portable SHA-256 kernel (pinning-crypto built for baseline x86-64, without SHA-NI: the software fallback keeps building and passing)"
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable cargo test -q --offline -p pinning-crypto

echo "==> chaos suite (fault injection + degradation)"
cargo test -q --offline --test chaos

echo "==> shared-state check (chaos + perf_equivalence at 16 test threads: a test that leans on process-wide state fails here instead of hiding behind test ordering)"
cargo test -q --offline --test chaos --test perf_equivalence -- --test-threads=16

echo "==> ctlog suite (Merkle proofs, sharding, auditor, resolver)"
cargo test -q -p pinning-ctlog --offline

echo "==> chaos smoke (release-mode kill/resume cycle under faults + storage-fault streamed cycle)"
cargo run -q --release --offline --example chaos_smoke | tee /tmp/chaos_smoke.out
grep -qF "storage-fault smoke OK" /tmp/chaos_smoke.out || { echo "chaos smoke missing the storage-fault phase"; exit 1; }

echo "==> storage-fault matrix (durable-media fault plans x journal writers x kill points)"
cargo test -q --offline --test chaos fault_matrix

echo "==> bench smoke (with-vs-without-memo A/B; fails on report divergence)"
cargo bench -q -p pinning-bench --bench perf --offline -- smoke

echo "==> fuzz smoke (every decoder, mutation fuzz, fixed seed; fails on any panic)"
cargo bench -q -p pinning-bench --bench fuzz --offline -- smoke

echo "==> serve smoke (seeded overload: bounded queue, nonzero shed, same-seed determinism, offline-identical verdicts)"
cargo bench -q -p pinning-bench --bench serve --offline -- smoke
for key in '"schema": "pinning-bench/serve"' '"same_seed_runs_identical": true' '"offline_identical_verdicts"'; do
  grep -qF "$key" BENCH_serve.json || { echo "BENCH_serve.json missing $key"; exit 1; }
done

echo "==> epoch smoke (seeded 3-epoch evolution: incremental/cold byte-identity, nonzero replayed apps, median-of-pairs speedup gate)"
cargo bench -q -p pinning-bench --bench epoch --offline -- smoke
for key in '"schema": "pinning-bench/epoch"' '"byte_identical": true' '"per_epoch"' '"pair_speedups"' '"speedup"'; do
  grep -qF "$key" BENCH_epoch.json || { echo "BENCH_epoch.json missing $key"; exit 1; }
done
if grep -qF '"replayed_total": 0' BENCH_epoch.json; then
  echo "BENCH_epoch.json: zero apps replayed"; exit 1
fi

echo "==> stream smoke (chunked streaming study: schedule byte-identity, kill-and-resume identity, scrub-overhead bound, flat-memory ceiling)"
cargo bench -q -p pinning-bench --bench stream --offline -- smoke
for key in '"schema": "pinning-bench/stream"' '"byte_identical": true' '"resume_identical": true' '"scrub_within_bound": true' '"rss_within_ceiling": true' '"apps_per_sec"' '"scrub_overhead_pct"'; do
  grep -qF "$key" BENCH_stream.json || { echo "BENCH_stream.json missing $key"; exit 1; }
done

echo "==> rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "CI OK"
