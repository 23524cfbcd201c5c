#!/bin/sh
# Tier-2 gate (see ROADMAP.md): formatting, in-tree static analysis, tests.
# Everything runs offline; no network access is required or attempted.
set -eu

cd "$(dirname "$0")"

# Every step is required: a missing tool (rustfmt, clippy, python3)
# fails the gate instead of skipping its step.
echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> xtask check"
cargo run -p xtask -q -- check

echo "==> cargo clippy --workspace --lib --bins --all-features"
# The lints are the root manifest's `[workspace.lints.clippy]` table
# (panics, the default hasher, hash-order iteration, raw threads);
# `missing_docs` is rustc's. `--lib --bins` leaves test code out, as
# xtask does; `--all-features` compiles the `faults` and `invariants`
# code too.
cargo clippy --workspace --lib --bins --all-features -- -D warnings

echo "==> cargo check --workspace --all-targets"
# `cargo test` never compiles the bench targets (ablations, table3_times,
# fig_sizes, micro), so an API change that breaks one fails only here.
cargo check --workspace --all-targets

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Broken intra-doc links (a deleted type still named in a doc, a bare
# author-year citation read as a link) fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# --workspace: at the repo root a plain `cargo test` covers only the root
# package, leaving the member crates' unit tests and xtask's golden
# fixtures out of the gate.
echo "==> cargo test -q --workspace (DEPMINER_THREADS=1, sequential fallback)"
DEPMINER_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q --workspace (DEPMINER_THREADS=4, parallel runtime)"
DEPMINER_THREADS=4 cargo test -q --workspace

# --workspace here too: at the root, `--features faults` alone tests only
# the root package, so govern's own fault-plan unit tests never ran.
echo "==> chaos pass: fault injection (DEPMINER_THREADS=1)"
DEPMINER_THREADS=1 cargo test -q --workspace --features faults

echo "==> chaos pass: fault injection (DEPMINER_THREADS=4)"
DEPMINER_THREADS=4 cargo test -q --workspace --features faults

echo "==> profiled smoke mine -> target/PROFILE_smoke.json"
# Generate a §5.2 synthetic relation, then mine it with `--algo all` —
# which iterates every `in_all` entry of the depminer-engine
# MinerRegistry through one shared Session — under a profile observer,
# and validate the exported span tree against the same invariants the
# property tests assert: every pipeline stage of Dep-Miner, TANE and
# FDEP must have opened a span (FDEP's configuration, Algorithm 3 on
# the Berge engine, is the only one to open `agree-sets/ec` and
# `transversals/berge`). Two threads, not `Auto`, so the tree
# holds worker spans for the validator even on a one-core host.
cargo run --release -q -p depminer -- generate \
    --attrs 8 --rows 400 --correlation 0.5 --seed 9 target/smoke.csv > /dev/null
DEPMINER_THREADS=2 cargo run --release -q -p depminer -- fds --algo all \
    --profile target/PROFILE_smoke.json target/smoke.csv > target/fds_all.txt
if ! grep -q "algo = all" target/fds_all.txt; then
    echo "ci.sh: registry smoke: fds --algo all header missing 'algo = all'" >&2
    exit 1
fi
cargo run -p xtask -q -- validate-profile target/PROFILE_smoke.json \
    --require load,depminer,agree-sets,max-sets,transversals,tane,tane-levels,agree-sets/couples,agree-sets/scan,agree-sets/ec,transversals/berge,emit

echo "==> CSV dialect smoke: a CRLF copy with every field quoted mines like the plain file"
# The reader's quoted-field and CRLF paths see no benchmark CSV, which
# `generate` writes unquoted with LF line ends: python3 writes the smoke
# relation again in that dialect, and TANE must print the same FD lines.
python3 - target/smoke.csv target/smoke_crlf.csv <<'PY'
import csv, sys
with open(sys.argv[1], newline="") as src, open(sys.argv[2], "w", newline="") as dst:
    csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(src))
PY
for csv in target/smoke.csv target/smoke_crlf.csv; do
    cargo run --release -q -p depminer -- fds --algo tane "$csv" \
        | grep -- '->' > "${csv%.csv}_tane.txt"
done
if ! grep -q '^"A","B"' target/smoke_crlf.csv || ! cmp -s target/smoke_tane.txt target/smoke_crlf_tane.txt; then
    echo "ci.sh: fds --algo tane on the CRLF, quoted copy differs from the plain file" >&2
    diff target/smoke_tane.txt target/smoke_crlf_tane.txt >&2 || true
    exit 1
fi

echo "==> Algorithms 2 and 3 and FDEP smoke: fds --algo depminer, depminer2 and fdep match fds --algo tane"
# depminer2 is not `in_all`, so the run above never exercises Algorithm 3
# on the levelwise engine, and it compares Algorithm 2 and FDEP only on
# the 8-attribute relation. That relation's transversal hypergraphs fit
# in one 64-bit edge-cover word; the 20-attribute one's have 135–143
# edges, so their covers span three words for both engines: levelwise's
# candidates and Berge's per-vertex covers, whose prefix mask crosses
# bits 64 and 128 as FDEP's inversion works through the edges.
cargo run --release -q -p depminer -- generate \
    --attrs 20 --rows 400 --correlation 0.5 --seed 9 target/smoke20.csv > /dev/null
for csv in target/smoke.csv target/smoke20.csv; do
    cargo run --release -q -p depminer -- fds --algo tane "$csv" \
        | grep -- '->' > target/fds_tane_only.txt
    for algo in depminer depminer2 fdep; do
        cargo run --release -q -p depminer -- fds --algo "$algo" "$csv" \
            | grep -- '->' > "target/fds_${algo}_only.txt"
        if ! cmp -s "target/fds_${algo}_only.txt" target/fds_tane_only.txt; then
            echo "ci.sh: fds --algo $algo and fds --algo tane disagree on $csv" >&2
            diff target/fds_tane_only.txt "target/fds_${algo}_only.txt" >&2 || true
            exit 1
        fi
    done
done

echo "==> normalize and report smoke: identical output at 1 and 4 threads"
# Both commands mine, take a canonical cover of the FDs and print keys
# and a 3NF design. On the 20-attribute relation's 13,684 FDs the cover
# step took about 12 s when it copied the FD list for every redundancy
# test; with one reused closure index each command takes about 1 s.
for cmd in normalize report; do
    for threads in 1 4; do
        DEPMINER_THREADS=$threads cargo run --release -q -p depminer -- "$cmd" \
            target/smoke20.csv > "target/${cmd}_t$threads.txt"
    done
    if ! cmp -s "target/${cmd}_t1.txt" "target/${cmd}_t4.txt"; then
        echo "ci.sh: $cmd output differs between 1 and 4 threads" >&2
        diff "target/${cmd}_t1.txt" "target/${cmd}_t4.txt" >&2 || true
        exit 1
    fi
done

echo "==> checkpoint/resume smoke: trip at first boundary, resume, compare"
# Interrupt a governed TANE mine at its first checkpoint (--timeout 0
# trips immediately), confirm the trip leaves a durable snapshot and
# prints its [PARTIAL] header and interruption report (stdout is block-
# buffered, so a buffer lost at exit 3 would leave the file empty),
# resume it to completion, and require the resumed FD set to match the
# uninterrupted baseline line for line. A completed resume must also
# discard its snapshot.
rm -rf target/ckpt_smoke
mkdir -p target/ckpt_smoke
cargo run --release -q -p depminer -- fds --algo tane \
    target/smoke.csv > target/fds_full.txt
status=0
cargo run --release -q -p depminer -- fds --algo tane --timeout 0 \
    --checkpoint-dir target/ckpt_smoke target/smoke.csv \
    > target/fds_tripped.txt 2>/dev/null || status=$?
if [ "$status" -ne 3 ]; then
    echo "ci.sh: interrupted mine should exit 3 (budget trip), got $status" >&2
    exit 1
fi
if [ ! -f target/ckpt_smoke/tane.snap ]; then
    echo "ci.sh: interrupted mine left no snapshot behind" >&2
    exit 1
fi
if ! head -n 1 target/fds_tripped.txt | grep -q '\[PARTIAL\]$'; then
    echo "ci.sh: interrupted mine printed no [PARTIAL] header" >&2
    exit 1
fi
if ! grep -q '^# run interrupted:' target/fds_tripped.txt; then
    echo "ci.sh: interrupted mine printed no '# run interrupted:' line" >&2
    exit 1
fi
cargo run --release -q -p depminer -- resume --checkpoint-dir target/ckpt_smoke \
    target/smoke.csv > target/fds_resumed.txt
grep -- '->' target/fds_full.txt > target/fds_full_only.txt
grep -- '->' target/fds_resumed.txt > target/fds_resumed_only.txt
if ! cmp -s target/fds_full_only.txt target/fds_resumed_only.txt; then
    echo "ci.sh: resumed FD set differs from the uninterrupted baseline" >&2
    diff target/fds_full_only.txt target/fds_resumed_only.txt >&2 || true
    exit 1
fi
if [ -e target/ckpt_smoke/tane.snap ]; then
    echo "ci.sh: a completed resume must discard its snapshot" >&2
    exit 1
fi

echo "==> parallel scaling benchmark smoke -> target/BENCH_parallel_smoke.json"
# Two reps only prove the sweep runs; the checked-in BENCH_parallel.json
# comes from a deliberate full run, so the gate writes under target/.
cargo run --release -q -p depminer-bench --bin parallel_scaling -- \
    --reps 2 --out target/BENCH_parallel_smoke.json

echo "==> overhead benchmark -> target/BENCH_overhead_smoke.json"
# Governance, null observer, armed/eager snapshots and the Session driver
# on one 20x100000 workload, every configuration interleaved in one
# process with the order rotated each rep; median and IQR of 21 reps,
# since a few-ms effect drowns in scheduler jitter under best-of
# estimators on a small box. The checked-in BENCH_overhead.json comes
# from a deliberate run, so the gate writes under target/.
cargo run --release -q -p depminer-bench --bin overhead -- \
    --out target/BENCH_overhead_smoke.json

echo "==> CLI-path benchmark smoke: python3 perfbench/smoke_test.py"
# perfbench/probe is a Cargo workspace of its own, so `cargo test
# --workspace` never compiles it; this builds the CLI and the probe,
# runs both trace modes on the smoke relation through the correctness
# gate, and checks the metric names against BENCHMARK.json.
python3 perfbench/smoke_test.py

echo "ci.sh: all gates green"
