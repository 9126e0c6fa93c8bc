#!/usr/bin/env sh
# Offline CI gate: formatting, lints, build, tests.
# Everything runs with --offline; the workspace has no external deps.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo clippy with check-invariants (deny warnings)"
cargo clippy --workspace --all-targets --offline \
    --features mlc-sim/check-invariants -- -D warnings

echo "==> cargo doc (deny broken intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --no-deps --workspace --offline

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

# `cargo test --workspace` unifies features across the workspace, and
# the root and mlc-check dev-dependencies enable check-invariants, so
# the run above only tests the instrumented engine. Test the engine the
# binaries and the benchmark ship as well (the feature is off here:
# `cargo tree -e features -i mlc-sim -p mlc-sim -p mlc-core` lists no
# check-invariants).
echo "==> cargo test (mlc-sim, mlc-core: unchecked engine)"
if cargo tree -e features -i mlc-sim -p mlc-sim -p mlc-core --offline \
    | grep -q check-invariants; then
    echo "ci.sh: check-invariants leaked into the unchecked engine test" >&2
    exit 1
fi
cargo test -p mlc-sim -p mlc-core --offline -q

echo "==> mlc-lint self-check (fixtures)"
./target/release/mlc-lint crates/cli/tests/fixtures/good_base.mlc \
    crates/cli/tests/fixtures/good_three_level.mlc
if ./target/release/mlc-lint crates/cli/tests/fixtures/bad_hierarchy.mlc \
    > /dev/null 2>&1; then
    echo "ci.sh: bad fixture unexpectedly passed lint" >&2
    exit 1
fi

echo "==> sweep-engine bench smoke (1 sample, small trace)"
MLC_BENCH_SAMPLES=1 MLC_SWEEP_RECORDS=20000 \
    MLC_BENCH_OUT="$(pwd)/target/mlc-results/BENCH_sweep_smoke.json" \
    MLC_BENCH_INGEST_OUT="$(pwd)/target/mlc-results/BENCH_ingest_smoke.json" \
    cargo bench -p mlc-bench --bench sweep_engines --offline

echo "==> per-stage perf smoke (ratios asserted, absolutes warn-only)"
ingest_smoke=target/mlc-results/BENCH_ingest_smoke.json
jq -e '.schema == "mlc-bench/1" and .bench == "ingest_stages"' \
    "$ingest_smoke" > /dev/null
# The single-trace analysis layers are reported (timed, never gated).
if ! jq -e '[.stages.analysis | .stackdist, .three_c, .wcet]
        | all(.wall_s > 0)' "$ingest_smoke" > /dev/null; then
    echo "ci.sh: ingest report lacks the stages.analysis timings" >&2
    jq '.stages.analysis' "$ingest_smoke" >&2
    exit 1
fi
# Engine-structure ratios are machine-independent enough to gate on:
# the one-pass engine amortizes the functional pass over the whole
# cycle ladder and must stay well clear of 2x the exhaustive engine.
if ! jq -e '.stages.sweep.speedup >= 2' "$ingest_smoke" > /dev/null; then
    echo "ci.sh: one-pass engine < 2x exhaustive on the smoke workload" >&2
    jq '.stages.sweep' "$ingest_smoke" >&2
    exit 1
fi
# The sharded stack pass needs real cores to win; on single-core
# runners run_sharded falls back to the serial pass (1 shard), so the
# ratio is only gated when sharding actually engaged.
if jq -e '.stages.stack.shards >= 2' "$ingest_smoke" > /dev/null; then
    if ! jq -e '.stages.stack.speedup >= 1.5' "$ingest_smoke" > /dev/null; then
        echo "ci.sh: sharded stack pass < 1.5x serial with >= 2 shards" >&2
        jq '.stages.stack' "$ingest_smoke" >&2
        exit 1
    fi
else
    echo "    (single shard on this runner; sharded-stack ratio not gated)"
fi
# Absolute records/s depends on the runner: warn, never fail.
if ! jq -e '.stages.sweep.onepass.records_per_s >= 50e6' \
    "$ingest_smoke" > /dev/null; then
    echo "ci.sh: WARNING: one-pass below 50M records/s on this runner" >&2
fi
if ! jq -e '.stages.ingest.slice.records_per_s >= 20e6' \
    "$ingest_smoke" > /dev/null; then
    echo "ci.sh: WARNING: slice ingest below 20M records/s on this runner" >&2
fi

echo "==> mlc-sweep one-pass end-to-end"
./target/release/mlc-gen --preset mips1 --records 50000 --seed 7 \
    --out target/ci_sweep_trace.din
./target/release/mlc-sweep --trace target/ci_sweep_trace.din \
    --sizes 32K:256K --cycles 1:4 --warmup-frac 0.25 --engine onepass
./target/release/mlc-sweep --trace target/ci_sweep_trace.din \
    --sizes 32K:64K --cycles 1:2 --warmup-frac 0.25 --cross-check

echo "==> manifest determinism smoke"
# The manifest records argv, so both runs must use IDENTICAL arguments;
# the first manifest is copied aside before the second run overwrites
# it. Only lines with an `_ms` timing key may differ.
mkdir -p target/mlc-results
run_sweep_with_manifest() {
    ./target/release/mlc-sweep --trace target/ci_sweep_trace.din \
        --sizes 32K:64K --cycles 1:2 --engine onepass \
        --metrics-out target/mlc-results/ci_sweep.jsonl > /dev/null
}
run_sweep_with_manifest
cp target/mlc-results/ci_sweep.manifest.json target/mlc-results/ci_sweep.manifest.first.json
run_sweep_with_manifest
grep -v '_ms"' target/mlc-results/ci_sweep.manifest.first.json \
    > target/mlc-results/ci_manifest_a.stripped
grep -v '_ms"' target/mlc-results/ci_sweep.manifest.json \
    > target/mlc-results/ci_manifest_b.stripped
if ! cmp -s target/mlc-results/ci_manifest_a.stripped target/mlc-results/ci_manifest_b.stripped; then
    echo "ci.sh: manifest non-timing fields differ between identical runs" >&2
    diff target/mlc-results/ci_manifest_a.stripped target/mlc-results/ci_manifest_b.stripped >&2 || true
    exit 1
fi
grep -q '"digest": "fnv1a64:' target/mlc-results/ci_sweep.manifest.json
# The one-pass walk names the ISA tier it ran on (picked at run time).
if ! jq -e '.isa == "baseline" or .isa == "x86-64-v3" or .isa == "x86-64-v4"' \
    target/mlc-results/ci_sweep.manifest.json > /dev/null; then
    echo "ci.sh: sweep manifest does not name the walk's ISA tier" >&2
    exit 1
fi
grep -q '_ms"' target/mlc-results/ci_sweep.manifest.json
grep -q '"schema":"mlc-metrics/1"' target/mlc-results/ci_sweep.jsonl

echo "==> kill-and-resume journal smoke"
# An interrupted-then-resumed journaled sweep must produce a CSV
# byte-identical to an uninterrupted run. Use a trace long enough that
# SIGKILL lands mid-sweep, but tolerate the sweep winning the race.
./target/release/mlc-gen --preset mips1 --records 2000000 --seed 21 \
    --out target/ci_journal_trace.din > /dev/null
./target/release/mlc-sweep --trace target/ci_journal_trace.din \
    --sizes 16K:256K --cycles 1:6 --engine exhaustive \
    --out target/mlc-results/ci_journal_plain.csv > /dev/null
rm -f target/mlc-results/ci_journal.jsonl \
    target/mlc-results/ci_journal_resumed.csv
./target/release/mlc-sweep --trace target/ci_journal_trace.din \
    --sizes 16K:256K --cycles 1:6 --engine exhaustive \
    --journal target/mlc-results/ci_journal.jsonl \
    --out target/mlc-results/ci_journal_resumed.csv > /dev/null 2>&1 &
sweep_pid=$!
# Wait for at least one committed row, then kill -9.
tries=0
while ! grep -q '"row"' target/mlc-results/ci_journal.jsonl 2>/dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ] || ! kill -0 "$sweep_pid" 2>/dev/null; then
        break
    fi
    sleep 0.05
done
kill -9 "$sweep_pid" 2>/dev/null || true
wait "$sweep_pid" 2>/dev/null || true
if ! grep -q '"row"' target/mlc-results/ci_journal.jsonl 2>/dev/null; then
    echo "ci.sh: no journal row committed before the kill" >&2
    exit 1
fi
if [ -s target/mlc-results/ci_journal_resumed.csv ] \
    && cmp -s target/mlc-results/ci_journal_plain.csv \
        target/mlc-results/ci_journal_resumed.csv; then
    echo "    (sweep finished before the kill; resume still exercised below)"
fi
./target/release/mlc-sweep --trace target/ci_journal_trace.din \
    --sizes 16K:256K --cycles 1:6 --engine exhaustive \
    --journal target/mlc-results/ci_journal.jsonl --resume \
    --out target/mlc-results/ci_journal_resumed.csv > /dev/null
if ! cmp -s target/mlc-results/ci_journal_plain.csv \
    target/mlc-results/ci_journal_resumed.csv; then
    echo "ci.sh: resumed sweep CSV differs from the uninterrupted run" >&2
    diff target/mlc-results/ci_journal_plain.csv \
        target/mlc-results/ci_journal_resumed.csv >&2 || true
    exit 1
fi

echo "==> degraded trace ingestion smoke"
cp target/ci_sweep_trace.din target/ci_faulty_trace.din
printf 'not a record\n3 zz\n' >> target/ci_faulty_trace.din
if ./target/release/mlc-run --trace target/ci_faulty_trace.din \
    > /dev/null 2>&1; then
    echo "ci.sh: strict ingestion accepted a malformed trace" >&2
    exit 1
fi
./target/release/mlc-run --trace target/ci_faulty_trace.din \
    --trace-faults skip:4 > /dev/null
if [ "$(wc -l < target/ci_faulty_trace.din.quarantine)" != 2 ]; then
    echo "ci.sh: quarantine sidecar should hold exactly 2 records" >&2
    exit 1
fi

echo "==> attribution + event-trace smoke"
./target/release/mlc-run --trace target/ci_sweep_trace.din \
    --attribution \
    --events-out target/mlc-results/ci_attr_events.jsonl \
    --events-every 32 \
    --perfetto-out target/mlc-results/ci_attr_perfetto.json \
    --metrics-out target/mlc-results/ci_attr_metrics.jsonl \
    > target/mlc-results/ci_attr_stdout.txt
if ! grep -q "execution-time attribution" target/mlc-results/ci_attr_stdout.txt \
    || ! grep -q "Equation 1 total off by" target/mlc-results/ci_attr_stdout.txt; then
    echo "ci.sh: mlc-run --attribution did not print the cross-check" >&2
    exit 1
fi
# Ledger conservation on the real exported metrics: the sim.ledger.*
# counters must sum exactly to sim.total_cycles.
ledger_sum=$(jq -s '[.[] | select(.event == "counter"
        and (.name | startswith("sim.ledger."))) | .value] | add' \
    target/mlc-results/ci_attr_metrics.jsonl)
total_cycles=$(jq -s '[.[] | select(.event == "counter"
        and .name == "sim.total_cycles") | .value] | first' \
    target/mlc-results/ci_attr_metrics.jsonl)
if [ -z "$ledger_sum" ] || [ "$ledger_sum" != "$total_cycles" ]; then
    echo "ci.sh: ledger buckets ($ledger_sum) != total_cycles ($total_cycles)" >&2
    exit 1
fi
if ! jq -s -e '[.[] | select(.event == "hist")] | length >= 4' \
    target/mlc-results/ci_attr_metrics.jsonl > /dev/null; then
    echo "ci.sh: metrics JSONL is missing the histograms" >&2
    exit 1
fi
# mlc-events/1 schema on the meta line.
if ! head -1 target/mlc-results/ci_attr_events.jsonl \
    | jq -e '.event == "meta" and .schema == "mlc-events/1" and .every == 32' \
    > /dev/null; then
    echo "ci.sh: events meta line does not match mlc-events/1" >&2
    exit 1
fi
# Perfetto/Chrome trace: valid JSON, non-empty, slices are complete events.
if ! jq -e '(.otherData.schema == "mlc-chrome-trace/1")
        and (.traceEvents | length > 0)
        and ([.traceEvents[] | select(.ph == "X")] | length > 0)
        and ([.traceEvents[] | select(.ph != "X" and .ph != "M")] | length == 0)' \
    target/mlc-results/ci_attr_perfetto.json > /dev/null; then
    echo "ci.sh: Perfetto JSON failed the schema check" >&2
    exit 1
fi
# The same cross-check from a trace alone, on the paper's base machine.
./target/release/mlc-analyze --trace target/ci_sweep_trace.din \
    --sizes 4K:16K --attribution > target/mlc-results/ci_attr_analyze.txt
if ! grep -q "execution-time attribution" target/mlc-results/ci_attr_analyze.txt \
    || ! grep -q "Equation 1 total off by" target/mlc-results/ci_attr_analyze.txt; then
    echo "ci.sh: mlc-analyze --attribution did not print the cross-check" >&2
    exit 1
fi

echo "==> guaranteed-bounds smoke (mlc-bounds)"
# JSON report: schema + per-level bounds are sane (lo <= hi <= reads).
./target/release/mlc-bounds --trace target/ci_sweep_trace.din \
    --format json > target/mlc-results/ci_bounds.json
if ! jq -e '(.schema == "mlc-bounds/1")
        and (.levels | length >= 2)
        and all(.levels[]; .lo <= .hi and .hi <= .reads_max)' \
    target/mlc-results/ci_bounds.json > /dev/null; then
    echo "ci.sh: mlc-bounds JSON failed the mlc-bounds/1 schema check" >&2
    exit 1
fi
# End-to-end sim-vs-bounds oracle: the cold simulation must land inside
# every guaranteed bound (non-zero exit otherwise).
./target/release/mlc-bounds --trace target/ci_sweep_trace.din --check \
    > target/mlc-results/ci_bounds_check.txt
if ! grep -q "oracle: simulated misses fall inside every guaranteed bound" \
    target/mlc-results/ci_bounds_check.txt; then
    echo "ci.sh: mlc-bounds --check did not confirm the oracle" >&2
    exit 1
fi

echo "==> mlc-serve daemon smoke (cache, kill -9, recover)"
# A sweep submitted to the daemon must produce a CSV byte-identical to
# mlc-sweep on the same flags; a daemon killed -9 mid-sweep must resume
# the interrupted grid on restart and converge on the same bytes; and a
# repeat submission must be answered from the cache without recomputing.
serve_dir=target/mlc-results/ci_serve
rm -rf "$serve_dir"
mkdir -p "$serve_dir"
serve_sock="$serve_dir/mlc-serve.sock"
serve_args="--sizes 32K:128K --cycles 1:4 --warmup-frac 0.25 --engine onepass"
./target/release/mlc-sweep --trace target/ci_sweep_trace.din $serve_args \
    --out "$serve_dir/sweep_direct.csv" > /dev/null
# Phase 1: slow rows so SIGKILL lands mid-sweep deterministically.
MLC_SERVE_ROW_DELAY_MS=1000 ./target/release/mlc-serve \
    --store "$serve_dir/store" --socket "$serve_sock" \
    > "$serve_dir/server1.log" 2>&1 &
serve_pid=$!
tries=0
while [ ! -S "$serve_sock" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "ci.sh: mlc-serve did not create its socket" >&2
        exit 1
    fi
    sleep 0.05
done
./target/release/mlc-client --socket "$serve_sock" submit \
    --trace "$(pwd)/target/ci_sweep_trace.din" $serve_args --no-wait \
    > "$serve_dir/submit1.txt"
serve_key=$(sed -n 's/^key=//p' "$serve_dir/submit1.txt")
if [ -z "$serve_key" ]; then
    echo "ci.sh: submit did not print a job key" >&2
    exit 1
fi
# Wait for at least one journalled row, then kill -9 the daemon.
tries=0
while ! grep -q '"row"' "$serve_dir"/store/jobs/*.jsonl 2>/dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
        echo "ci.sh: no spool row committed before the kill" >&2
        exit 1
    fi
    sleep 0.05
done
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
# The killed daemon leaves a stale socket file behind; remove it so the
# socket-exists wait below observes the *restarted* daemon (which runs
# recovery before binding), not the corpse.
rm -f "$serve_sock"
# Phase 2: restart over the same store; recovery must resume the job.
./target/release/mlc-serve --store "$serve_dir/store" \
    --socket "$serve_sock" > "$serve_dir/server2.log" 2>&1 &
serve_pid=$!
tries=0
while [ ! -S "$serve_sock" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "ci.sh: restarted mlc-serve did not create its socket" >&2
        exit 1
    fi
    sleep 0.05
done
if ! grep -q "resumed in-flight sweep $serve_key" "$serve_dir/server2.log"; then
    echo "ci.sh: restarted daemon did not resume the interrupted sweep" >&2
    cat "$serve_dir/server2.log" >&2
    exit 1
fi
# The resumed job finishes in the background; poll the cache via fetch.
tries=0
until ./target/release/mlc-client --socket "$serve_sock" fetch \
    --key "$serve_key" --out "$serve_dir/recovered.csv" \
    > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -gt 600 ]; then
        echo "ci.sh: resumed sweep never reached the cache" >&2
        exit 1
    fi
    sleep 0.1
done
if ! cmp -s "$serve_dir/sweep_direct.csv" "$serve_dir/recovered.csv"; then
    echo "ci.sh: recovered daemon grid differs from mlc-sweep" >&2
    diff "$serve_dir/sweep_direct.csv" "$serve_dir/recovered.csv" >&2 || true
    exit 1
fi
# Repeat submission: answered from the cache, bit-identical, no compute.
./target/release/mlc-client --socket "$serve_sock" submit \
    --trace "$(pwd)/target/ci_sweep_trace.din" $serve_args \
    --out "$serve_dir/cached.csv" > "$serve_dir/submit2.txt"
if ! grep -q '^source=memory$' "$serve_dir/submit2.txt"; then
    echo "ci.sh: repeat submission was not served from the memory tier" >&2
    cat "$serve_dir/submit2.txt" >&2
    exit 1
fi
if ! cmp -s "$serve_dir/sweep_direct.csv" "$serve_dir/cached.csv"; then
    echo "ci.sh: cached daemon grid differs from mlc-sweep" >&2
    exit 1
fi
# The same records stored as .mlcz are the same trace: same key, and
# the memory tier answers.
./target/release/mlc-gen --preset mips1 --records 50000 --seed 7 \
    --out "$serve_dir/ci_sweep_trace.mlcz" > /dev/null
./target/release/mlc-client --socket "$serve_sock" submit \
    --trace "$(pwd)/$serve_dir/ci_sweep_trace.mlcz" $serve_args \
    --out "$serve_dir/cached_mlcz.csv" > "$serve_dir/submit3.txt"
if ! grep -q "^key=$serve_key\$" "$serve_dir/submit3.txt" \
    || ! grep -q '^source=memory$' "$serve_dir/submit3.txt"; then
    echo "ci.sh: the .mlcz copy of the trace did not hit the same key in memory" >&2
    cat "$serve_dir/submit3.txt" >&2
    exit 1
fi
./target/release/mlc-client --socket "$serve_sock" stats --format json \
    > "$serve_dir/stats.json"
if ! jq -e '(.counters.jobs_recovered == 1) and (.counters.jobs_computed == 1)' \
    "$serve_dir/stats.json" > /dev/null; then
    echo "ci.sh: daemon stats disagree with the recovery story" >&2
    cat "$serve_dir/stats.json" >&2
    exit 1
fi
# The repeat submission was identified from the trace index, and no
# trace needed the fallback loader.
if ! jq -e '(.counters.trace_index_hits >= 1)
        and (.counters.trace_loader_fallbacks == 0)' \
    "$serve_dir/stats.json" > /dev/null; then
    echo "ci.sh: the trace index did not answer the repeat submission" >&2
    jq '.counters' "$serve_dir/stats.json" >&2
    exit 1
fi
# ping is thin liveness now: proto/version/uptime and nothing else.
./target/release/mlc-client --socket "$serve_sock" ping \
    > "$serve_dir/ping.txt"
if ! grep -q '^proto=mlc-serve/1$' "$serve_dir/ping.txt" \
    || ! grep -q '^uptime_ms=' "$serve_dir/ping.txt" \
    || grep -q '^jobs_' "$serve_dir/ping.txt"; then
    echo "ci.sh: ping is not the thin liveness probe it claims to be" >&2
    cat "$serve_dir/ping.txt" >&2
    exit 1
fi
./target/release/mlc-client --socket "$serve_sock" shutdown > /dev/null
wait "$serve_pid" 2>/dev/null || true

echo "==> mlc-serve chaos smoke (stall reap, ENOSPC heal, tiny-budget eviction)"
# Under injected faults and an abusive client the daemon must shed and
# degrade with typed answers — never hang, never die — and the retrying
# client must converge on bytes identical to mlc-sweep.
chaos_dir=target/mlc-results/ci_chaos
rm -rf "$chaos_dir"
mkdir -p "$chaos_dir"
chaos_sock="$chaos_dir/mlc-serve.sock"
chaos_args="--sizes 32K:128K --cycles 1:4 --warmup-frac 0.25 --engine onepass"
./target/release/mlc-sweep --trace target/ci_sweep_trace.din $chaos_args \
    --out "$chaos_dir/direct.csv" > /dev/null
# Phase 1: one injected journal ENOSPC, plus a tight io timeout so the
# half-line staller below is reaped instead of pinning a handler.
MLC_SERVE_CHAOS=journal-enospc=1 ./target/release/mlc-serve \
    --store "$chaos_dir/store" --socket "$chaos_sock" \
    --io-timeout-ms 400 > "$chaos_dir/server1.log" 2>&1 &
chaos_pid=$!
tries=0
while [ ! -S "$chaos_sock" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "ci.sh: chaos mlc-serve did not create its socket" >&2
        exit 1
    fi
    sleep 0.05
done
./target/release/mlc-client --socket "$chaos_sock" stall \
    --half-line --hold-ms 1500 > "$chaos_dir/stall.txt" 2>&1 &
stall_pid=$!
# The injected ENOSPC fails the first attempt retryably; the client's
# bounded backoff must heal it without operator help.
if ! ./target/release/mlc-client --socket "$chaos_sock" submit \
    --trace "$(pwd)/target/ci_sweep_trace.din" $chaos_args \
    --retries 3 --retry-max-ms 400 --out "$chaos_dir/healed.csv" \
    > "$chaos_dir/submit_heal.txt" 2> "$chaos_dir/submit_heal.err"; then
    echo "ci.sh: retrying client did not heal the injected ENOSPC" >&2
    cat "$chaos_dir/submit_heal.err" >&2
    exit 1
fi
if ! grep -q 'retry 1/' "$chaos_dir/submit_heal.err"; then
    echo "ci.sh: chaos fault never fired (no client retry observed)" >&2
    cat "$chaos_dir/submit_heal.err" >&2
    exit 1
fi
if ! cmp -s "$chaos_dir/direct.csv" "$chaos_dir/healed.csv"; then
    echo "ci.sh: healed grid differs from mlc-sweep" >&2
    exit 1
fi
wait "$stall_pid" 2>/dev/null || true
if ! grep -q '^stalled_ms=' "$chaos_dir/stall.txt"; then
    echo "ci.sh: stall client did not run to completion" >&2
    cat "$chaos_dir/stall.txt" >&2
    exit 1
fi
# The daemon survived all of it and accounted for the damage.
./target/release/mlc-client --socket "$chaos_sock" stats --format json \
    > "$chaos_dir/stats1.json"
if ! jq -e '.counters.jobs_computed == 1' "$chaos_dir/stats1.json" > /dev/null; then
    echo "ci.sh: chaos daemon stats disagree (expected one computed job)" >&2
    cat "$chaos_dir/stats1.json" >&2
    exit 1
fi
chaos_bytes=$(jq -r '.tiers.disk.bytes' "$chaos_dir/stats1.json")
if [ -z "$chaos_bytes" ] || [ "$chaos_bytes" = "0" ]; then
    echo "ci.sh: stats did not report the disk-tier bytes" >&2
    exit 1
fi
./target/release/mlc-client --socket "$chaos_sock" shutdown > /dev/null
wait "$chaos_pid" 2>/dev/null || true
# Phase 2: restart with a budget that fits one entry but not two; a
# second grid must evict the first, which then recomputes cleanly.
rm -f "$chaos_sock"
./target/release/mlc-serve --store "$chaos_dir/store" \
    --socket "$chaos_sock" --disk-budget $((chaos_bytes + chaos_bytes / 2)) \
    > "$chaos_dir/server2.log" 2>&1 &
chaos_pid=$!
tries=0
while [ ! -S "$chaos_sock" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "ci.sh: budgeted mlc-serve did not create its socket" >&2
        exit 1
    fi
    sleep 0.05
done
./target/release/mlc-client --socket "$chaos_sock" submit \
    --trace "$(pwd)/target/ci_sweep_trace.din" \
    --sizes 16K:64K --cycles 1:4 --warmup-frac 0.25 --engine onepass \
    > /dev/null
./target/release/mlc-client --socket "$chaos_sock" stats --format json \
    > "$chaos_dir/stats2.json"
if ! jq -e '(.tiers.disk.entries == 1) and (.tiers.disk.evictions >= 1)' \
    "$chaos_dir/stats2.json" > /dev/null; then
    echo "ci.sh: tiny disk budget did not evict the LRU entry" >&2
    cat "$chaos_dir/stats2.json" >&2
    exit 1
fi
# The evicted grid is gone from disk but recomputes bit-identically.
./target/release/mlc-client --socket "$chaos_sock" submit \
    --trace "$(pwd)/target/ci_sweep_trace.din" $chaos_args \
    --out "$chaos_dir/recomputed.csv" > "$chaos_dir/submit_evicted.txt"
if ! grep -q '^source=computed$' "$chaos_dir/submit_evicted.txt"; then
    echo "ci.sh: evicted grid was not recomputed" >&2
    cat "$chaos_dir/submit_evicted.txt" >&2
    exit 1
fi
if ! cmp -s "$chaos_dir/direct.csv" "$chaos_dir/recomputed.csv"; then
    echo "ci.sh: recomputed grid after eviction differs from mlc-sweep" >&2
    exit 1
fi
./target/release/mlc-client --socket "$chaos_sock" shutdown > /dev/null
wait "$chaos_pid" 2>/dev/null || true

echo "==> mlc-serve telemetry smoke (trace ids, mlc-stats/1, flight recorder)"
# A traced submission must carry its id end to end (client output,
# committed journal, shutdown span export); the stats document must
# version itself, count the repeat fetch as a memory hit, and conserve
# samples across stages; the flight recorder must rotate at its budget.
obs_dir=target/mlc-results/ci_obs
rm -rf "$obs_dir"
mkdir -p "$obs_dir"
obs_sock="$obs_dir/mlc-serve.sock"
obs_args="--sizes 32K:128K --cycles 1:4 --warmup-frac 0.25 --engine onepass"
./target/release/mlc-serve --store "$obs_dir/store" --socket "$obs_sock" \
    --stats-out "$obs_dir/flight.jsonl" --stats-every-ms 50 \
    --stats-max-bytes 1K --events-out "$obs_dir/spans.json" \
    > "$obs_dir/server.log" 2>&1 &
obs_pid=$!
tries=0
while [ ! -S "$obs_sock" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "ci.sh: telemetry mlc-serve did not create its socket" >&2
        exit 1
    fi
    sleep 0.05
done
./target/release/mlc-client --socket "$obs_sock" submit \
    --trace "$(pwd)/target/ci_sweep_trace.din" $obs_args \
    --trace-id ci-trace-e2e --out "$obs_dir/cold.csv" \
    > "$obs_dir/submit_cold.txt"
if ! grep -q '^trace_id=ci-trace-e2e$' "$obs_dir/submit_cold.txt" \
    || ! grep -q '^source=computed$' "$obs_dir/submit_cold.txt"; then
    echo "ci.sh: traced cold submit did not echo its trace id" >&2
    cat "$obs_dir/submit_cold.txt" >&2
    exit 1
fi
if ! grep -q '"trace_id":"ci-trace-e2e"' "$obs_dir"/store/cache/*.jsonl; then
    echo "ci.sh: committed journal header lost the trace id" >&2
    exit 1
fi
mem_hits_before=$(./target/release/mlc-client --socket "$obs_sock" \
    stats --format json | jq '.tiers.memory.hits')
./target/release/mlc-client --socket "$obs_sock" submit \
    --trace "$(pwd)/target/ci_sweep_trace.din" $obs_args \
    --out "$obs_dir/warm.csv" > "$obs_dir/submit_warm.txt"
if ! grep -q '^source=memory$' "$obs_dir/submit_warm.txt"; then
    echo "ci.sh: repeat submission was not a memory-tier hit" >&2
    cat "$obs_dir/submit_warm.txt" >&2
    exit 1
fi
./target/release/mlc-client --socket "$obs_sock" stats --format json \
    > "$obs_dir/stats.json"
if ! jq -e '.schema == "mlc-stats/1"' "$obs_dir/stats.json" > /dev/null; then
    echo "ci.sh: stats document is not tagged mlc-stats/1" >&2
    exit 1
fi
if ! jq -e ".tiers.memory.hits > $mem_hits_before" \
    "$obs_dir/stats.json" > /dev/null; then
    echo "ci.sh: memory-tier hits did not increment on the repeat fetch" >&2
    cat "$obs_dir/stats.json" >&2
    exit 1
fi
# Conservation: across all stages the recorder holds at least one span
# per completed job (a computed job alone crosses >= 4 stages).
if ! jq -e '([.stages[] | select(type == "object") | .count] | add)
        >= .counters.jobs_computed' "$obs_dir/stats.json" > /dev/null; then
    echo "ci.sh: stage histograms hold fewer samples than completed jobs" >&2
    cat "$obs_dir/stats.json" >&2
    exit 1
fi
# mlc-top renders the same document as a one-shot dashboard.
./target/release/mlc-client --socket "$obs_sock" top --iterations 1 \
    > "$obs_dir/top.txt"
if ! grep -q 'mlc-stats/1' "$obs_dir/top.txt" \
    || ! grep -q '^stage  *count' "$obs_dir/top.txt"; then
    echo "ci.sh: mlc-top did not render the stats dashboard" >&2
    cat "$obs_dir/top.txt" >&2
    exit 1
fi
# Flight recorder: the tiny byte budget must force a rotation.
tries=0
while [ ! -f "$obs_dir/flight.jsonl.1" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
        echo "ci.sh: flight recorder never rotated at a 1K budget" >&2
        exit 1
    fi
    sleep 0.05
done
if ! head -1 "$obs_dir/flight.jsonl.1" \
    | jq -e '.schema == "mlc-stats/1"' > /dev/null; then
    echo "ci.sh: rotated flight-recorder snapshot is not mlc-stats/1" >&2
    exit 1
fi
./target/release/mlc-client --socket "$obs_sock" shutdown > /dev/null
wait "$obs_pid" 2>/dev/null || true
# The shutdown span export is Perfetto-loadable and carries the id.
if ! jq -e '(.otherData.schema == "mlc-serve-spans/1")
        and (.traceEvents | length > 0)' "$obs_dir/spans.json" > /dev/null; then
    echo "ci.sh: span export failed the mlc-serve-spans/1 schema check" >&2
    exit 1
fi
if ! grep -q 'ci-trace-e2e' "$obs_dir/spans.json"; then
    echo "ci.sh: span export lost the submission's trace id" >&2
    exit 1
fi

echo "==> trace fault-injection tests"
cargo test -p mlc-trace --offline -q --test fault_props

echo "==> ci passed"
